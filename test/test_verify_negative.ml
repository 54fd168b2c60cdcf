(* The verifier must catch broken placements, not only bless good ones.
   Each test corrupts a correct solution in one specific way and checks
   the corresponding violation class fires. *)
open Placement

let solved_figure3 () =
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
    Instance.make ~net ~routing ~policies:[ (0, policy) ]
      ~capacities:(Instance.uniform_capacity net 4)
  in
  let report = Solve.run inst in
  (report.Solve.layout, Option.get report.Solve.solution)

let drop_cells_at sol ~switch ~pred =
  let per_switch = Array.copy sol.Solution.per_switch in
  per_switch.(switch) <- List.filter (fun c -> not (pred c)) per_switch.(switch);
  { sol with Solution.per_switch = per_switch }

let add_cell sol ~switch cell =
  let per_switch = Array.copy sol.Solution.per_switch in
  per_switch.(switch) <- cell :: per_switch.(switch);
  { sol with Solution.per_switch = per_switch }

let has_violation pred violations = List.exists pred violations

(* The mutants: each breaks a correct solution in one specific way. *)

let strip_everywhere sol pred =
  List.fold_left
    (fun s k -> drop_cells_at s ~switch:k ~pred)
    sol [ 0; 1; 2; 3; 4 ]

(* Every drop gone: coverage fires. *)
let without_drops sol =
  strip_everywhere sol (fun c -> Acl.Rule.is_drop c.Solution.rule)

(* The permit gone wherever it sits: installed drops lose their
   dependency. *)
let without_permits sol =
  strip_everywhere sol (fun c -> Acl.Rule.is_permit c.Solution.rule)

(* Six fillers on switch 0: capacity overflows. *)
let overfull sol =
  List.fold_left
    (fun s i ->
      add_cell s ~switch:0
        {
          Solution.rule =
            Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Permit
              ~priority:(1000 + i);
          tags = [ (0, 1000 + i) ];
        })
    sol [ 1; 2; 3; 4; 5; 6 ]

(* A drop the policy never asked for kills permitted traffic: only the
   semantic layer can see this. *)
let with_rogue_drop sol =
  add_cell sol ~switch:1
    {
      Solution.rule =
        Acl.Rule.make
          ~field:(Util.field ~src:"10.1.0.0/16" ())
          ~action:Acl.Rule.Drop ~priority:99;
      tags = [ (0, 99) ];
    }

let test_missing_coverage_detected () =
  let layout, sol = solved_figure3 () in
  let violations = Verify.structural layout (without_drops sol) in
  Alcotest.(check bool) "coverage violation" true
    (has_violation (function Verify.Coverage _ -> true | _ -> false) violations)

let test_missing_dependency_detected () =
  let layout, sol = solved_figure3 () in
  let broken = without_permits sol in
  let violations = Verify.structural layout broken in
  Alcotest.(check bool) "dependency violation" true
    (has_violation
       (function Verify.Dependency _ -> true | _ -> false)
       violations);
  (* And it is a real packet-level bug, not just bookkeeping. *)
  let semantic = Verify.semantic ~random_samples:30 (Prng.create 1) broken in
  Alcotest.(check bool) "semantic violation too" true (semantic <> [])

let test_capacity_detected () =
  let layout, sol = solved_figure3 () in
  let violations = Verify.structural layout (overfull sol) in
  Alcotest.(check bool) "capacity violation" true
    (has_violation (function Verify.Capacity _ -> true | _ -> false) violations)

let test_rogue_drop_detected () =
  let _, sol = solved_figure3 () in
  let semantic =
    Verify.semantic ~random_samples:40 (Prng.create 2) (with_rogue_drop sol)
  in
  Alcotest.(check bool) "rogue drop caught" true
    (has_violation (function Verify.Semantic _ -> true | _ -> false) semantic)

let test_clean_solution_passes () =
  let layout, sol = solved_figure3 () in
  Alcotest.(check int) "no violations" 0
    (List.length (Verify.check (Prng.create 3) layout sol))

(* Two policies on a star sharing a drop, merged by a plan whose second
   member is a shadowed copy of the drop marked as a dummy — the shape
   a merge-cycle break leaves.  A dummy decides nothing, so it needs no
   path coverage: stripping the dummy from the merged placement must
   leave the structural check silent, while stripping the real drop
   must not. *)
let test_dummy_drops_need_no_coverage () =
  let r1 = Util.field ~src:"10.0.0.0/16" ~dst:"11.0.0.0/8" () in
  let r2 = Util.field ~src:"10.0.0.0/8" ~dst:"11.0.0.0/16" () in
  let net = Topo.Builder.star ~leaves:3 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] ();
      ]
  in
  let inst =
    Instance.make ~net ~routing
      ~policies:
        [
          ( 0,
            Acl.Policy.of_fields [ (r1, Acl.Rule.Permit); (r2, Acl.Rule.Drop) ]
          );
          ( 1,
            Acl.Policy.of_fields
              [
                (r1, Acl.Rule.Permit); (r2, Acl.Rule.Drop); (r2, Acl.Rule.Drop);
              ] );
        ]
      ~capacities:(Instance.uniform_capacity net 10)
  in
  let real = (0, 1) and dummy = (1, 1) in
  let group =
    {
      Merge.gid = 0;
      field = r2;
      action = Acl.Rule.Drop;
      members =
        [
          { Merge.ingress = fst real; priority = snd real; is_dummy = false };
          { Merge.ingress = fst dummy; priority = snd dummy; is_dummy = true };
        ];
    }
  in
  let layout =
    Layout.build
      ~plan:{ Merge.groups = [ group ] }
      inst
  in
  Alcotest.(check bool) "the plan's dummy" true
    (Layout.is_dummy layout ~ingress:(fst dummy) ~priority:(snd dummy));
  let sol = Option.get (Encode.solve layout).Encode.solution in
  let strip key =
    {
      sol with
      Solution.per_switch =
        Array.map
          (List.filter_map (fun (c : Solution.cell) ->
               match List.filter (fun k -> k <> key) c.Solution.tags with
               | [] -> None
               | tags -> Some { c with Solution.tags }))
          sol.Solution.per_switch;
    }
  in
  Alcotest.(check int) "clean merged placement" 0
    (List.length (Verify.structural layout sol));
  Alcotest.(check int) "without its dummy" 0
    (List.length (Verify.structural layout (strip dummy)));
  Alcotest.(check bool) "without the real drop" true
    (has_violation
       (function Verify.Coverage _ -> true | _ -> false)
       (Verify.structural layout (strip real)))

(* The layout-free structural check must return the violation list of
   [structural] over the layout it stands for, in the same order. *)
let plain_agrees (sol : Solution.t) =
  Verify.structural_plain sol
  = Verify.structural
      (Layout.build ~sliced:sol.Solution.sliced sol.Solution.instance)
      sol

let test_plain_structural_on_mutants () =
  let _, sol = solved_figure3 () in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) name true (plain_agrees m);
      Alcotest.(check bool) (name ^ ", sliced") true
        (plain_agrees { m with Solution.sliced = true }))
    [
      ("clean", sol);
      ("without drops", without_drops sol);
      ("without permits", without_permits sol);
      ("overfull", overfull sol);
      ("rogue drop", with_rogue_drop sol);
    ]

(* Random solved instances (random topologies, or fat-tree families
   whose paths carry flow regions and whose policies share mergeable
   rules), then random damage: cells dropped, and copies of others
   spread over every switch, some re-tagged to the next ingress, so the
   lists compared are rarely empty. *)
let prop_plain_structural_agrees =
  QCheck.Test.make ~name:"layout-free structural check equals structural"
    ~count:40 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let inst =
        if Prng.bool g then Util.random_instance g
        else
          Workload.build
            {
              Workload.k = 4;
              num_policies = Prng.int_in g 2 4;
              rules = Prng.int_in g 3 8;
              mergeable = Prng.int_in g 0 3;
              paths = Prng.int_in g 6 14;
              capacity = Prng.int_in g 10 30;
              seed;
              slice = true;
              ingress_mode = Workload.Contiguous;
            }
      in
      let options =
        Solve.options ~merge:(Prng.bool g) ~slice:(Prng.bool g)
          ~ilp_config:{ Ilp.Solver.default_config with time_limit = 5.0 }
          ()
      in
      match (Solve.run ~options inst).Solve.solution with
      | None -> QCheck.assume_fail ()
      | Some sol ->
        let cells = List.concat (Array.to_list sol.Solution.per_switch) in
        let retag (c : Solution.cell) =
          {
            c with
            Solution.tags =
              List.map
                (fun (i, p) -> ((if Prng.bool g then i else i + 1), p))
                c.Solution.tags;
          }
        in
        let damaged =
          Array.map
            (fun here ->
              List.filter (fun _ -> Prng.int g 4 > 0) here
              @ List.filter_map
                  (fun c -> if Prng.int g 6 > 0 then None else Some (retag c))
                  cells)
            sol.Solution.per_switch
        in
        plain_agrees sol
        && plain_agrees { sol with Solution.per_switch = damaged })

let suite =
  [
    Alcotest.test_case "missing coverage detected" `Quick test_missing_coverage_detected;
    Alcotest.test_case "missing dependency detected" `Quick test_missing_dependency_detected;
    Alcotest.test_case "capacity overflow detected" `Quick test_capacity_detected;
    Alcotest.test_case "rogue drop detected" `Quick test_rogue_drop_detected;
    Alcotest.test_case "clean solution passes" `Quick test_clean_solution_passes;
    Alcotest.test_case "dummy drops need no coverage" `Quick
      test_dummy_drops_need_no_coverage;
    Alcotest.test_case "layout-free structural check on mutants" `Quick
      test_plain_structural_on_mutants;
    QCheck_alcotest.to_alcotest prop_plain_structural_agrees;
  ]
