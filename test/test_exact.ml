(* Cube algebra, exact policy semantics and the exact placement verifier. *)
open Ternary

(* Exhaustive ground truth over small widths: [v] is in [t] when [t]
   holds the one-point cube of [v]. *)
let denotes t v =
  let width = Cube.width t in
  Cube.subsumes t (Cube.of_tbvs ~width [ Tbv.exact ~width v ])

let check_sets name width expected actual =
  for v = 0 to (1 lsl width) - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s v=%d" name v)
      (expected v) (denotes actual v)
  done

let test_subtract_exhaustive () =
  let g = Prng.create 5 in
  for _ = 1 to 200 do
    let width = 6 in
    let mk () = Tbv.random g ~width ~star_prob:0.5 in
    let a = mk () and b = mk () in
    let a' = Cube.of_tbvs ~width [ a ] and b' = Cube.of_tbvs ~width [ b ] in
    let diff = Cube.subtract a' b' in
    check_sets "a\\b" width
      (fun v -> Tbv.matches_int a v && not (Tbv.matches_int b v))
      diff;
    let inter = Cube.inter a' b' in
    check_sets "a∩b" width
      (fun v -> Tbv.matches_int a v && Tbv.matches_int b v)
      inter
  done

let test_cube_basic () =
  let a = Cube.of_tbvs ~width:3 [ Tbv.prefix ~width:3 ~value:0b100 ~len:1 ]
  and b = Cube.of_tbvs ~width:3 [ Tbv.prefix ~width:3 ~value:0b110 ~len:2 ] in
  Alcotest.(check bool) "a subsumes b" true (Cube.subsumes a b);
  Alcotest.(check bool) "b not subsumes a" false (Cube.subsumes b a);
  let diff = Cube.subtract a b in
  Alcotest.(check int) "one cube left" 1 (List.length (Cube.cubes diff));
  Alcotest.(check bool) "10* remains" true (denotes diff 0b100);
  Alcotest.(check bool) "11* gone" false (denotes diff 0b110);
  Alcotest.(check bool) "empty minus anything" true
    (Cube.is_empty (Cube.subtract (Cube.empty 3) a))

let test_budget () =
  (* Force heavy fragmentation: subtract many random cubes with a tiny
     budget. *)
  let g = Prng.create 8 in
  let width = 24 in
  let full = Cube.of_tbvs ~width [ Tbv.all_star width ] in
  let rocks =
    Cube.of_tbvs ~width
      (List.init 20 (fun _ -> Tbv.random g ~width ~star_prob:0.6))
  in
  match Cube.subtract ~budget:10 full rocks with
  | exception Cube.Budget_exceeded -> ()
  | _ -> Alcotest.fail "expected budget blow-up"

(* Policy semantics: exact equality must agree with evaluation. *)
let test_policy_equal_exact () =
  let g = Prng.create 17 in
  for _ = 1 to 30 do
    let q = Classbench.policy g ~num_rules:(Prng.int_in g 2 8) in
    (* Redundancy removal preserves semantics: prove it exactly. *)
    let q', _ = Acl.Redundancy.remove q in
    Alcotest.(check bool) "redundancy exact-equal" true
      (Acl.Semantics.equal q q')
  done

let test_drop_region_matches_eval () =
  let g = Prng.create 23 in
  for _ = 1 to 20 do
    let q = Classbench.policy g ~num_rules:6 in
    let region = Acl.Semantics.drop_region q in
    (* Sampled agreement between the exact region and first-match
       evaluation. *)
    for _ = 1 to 100 do
      let p = Ternary.Packet.random g in
      let dropped = Acl.Policy.evaluate q p = Acl.Rule.Drop in
      (* The packet as an exact one-point cube; region membership is
         then cube containment. *)
      let point =
        Ternary.Field.make
          ~src:(Ternary.Prefix.make p.Ternary.Packet.src 32)
          ~dst:(Ternary.Prefix.make p.Ternary.Packet.dst 32)
          ~sport:(Ternary.Range.point p.Ternary.Packet.sport)
          ~dport:(Ternary.Range.point p.Ternary.Packet.dport)
          ~proto:(Ternary.Proto.Eq p.Ternary.Packet.proto)
          ()
      in
      let pc = List.hd (Ternary.Field.to_tbvs point) in
      let in_region =
        List.exists (fun c -> Tbv.inter c pc = Some pc) (Cube.cubes region)
      in
      Alcotest.(check bool) "region = eval" dropped in_region
    done
  done

(* The exact verifier proves solver outputs correct and catches
   corruptions. *)
let test_exact_verifier () =
  let g = Prng.create 29 in
  let proved = ref 0 in
  for i = 1 to 15 do
    let inst = Util.random_instance ~max_rules:6 g in
    let report = Placement.Solve.run inst in
    match report.Placement.Solve.solution with
    | Some sol -> (
      match Placement.Verify.exact sol with
      | Some [] -> incr proved
      | Some (v :: _) ->
        Alcotest.failf "case %d: exact verifier found %a" i
          Placement.Verify.pp_violation v
      | None -> () (* budget exceeded: acceptable *))
    | None -> ()
  done;
  Alcotest.(check bool) "proved at least a few placements" true (!proved >= 3)

let test_exact_catches_corruption () =
  let net = Topo.Builder.figure3 () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~ingress:0 ~egress:2 ~switches:[ 0; 1; 3; 4 ] ();
      ]
  in
  let policy =
    Acl.Policy.of_fields
      [
        (Util.field ~src:"10.1.0.0/16" (), Acl.Rule.Permit);
        (Util.field ~src:"10.0.0.0/8" (), Acl.Rule.Drop);
      ]
  in
  let inst =
    Placement.Instance.make ~net ~routing ~policies:[ (0, policy) ]
      ~capacities:(Placement.Instance.uniform_capacity net 4)
  in
  let sol = Option.get (Placement.Solve.run inst).Placement.Solve.solution in
  (* Remove the permit: the drop now kills permitted packets. *)
  let broken =
    {
      sol with
      Placement.Solution.per_switch =
        Array.map
          (List.filter (fun (c : Placement.Solution.cell) ->
               Acl.Rule.is_drop c.Placement.Solution.rule))
          sol.Placement.Solution.per_switch;
    }
  in
  match Placement.Verify.exact broken with
  | Some (_ :: _) -> ()
  | Some [] -> Alcotest.fail "exact verifier missed the corruption"
  | None -> Alcotest.fail "unexpected budget blow-up on a tiny instance"

let suite =
  [
    Alcotest.test_case "cube subtract/inter exhaustive" `Quick test_subtract_exhaustive;
    Alcotest.test_case "cube basics" `Quick test_cube_basic;
    Alcotest.test_case "cube budget" `Quick test_budget;
    Alcotest.test_case "policy equality exact" `Quick test_policy_equal_exact;
    Alcotest.test_case "drop region matches eval" `Quick test_drop_region_matches_eval;
    Alcotest.test_case "exact verifier proves placements" `Quick test_exact_verifier;
    Alcotest.test_case "exact verifier catches corruption" `Quick test_exact_catches_corruption;
  ]
