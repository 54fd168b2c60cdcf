open Placement

let solve_opts ?(merge = false) ?(slice = false) ?objective ?engine () =
  Solve.options ~merge ~slice ?objective ?engine
    ~ilp_config:{ Ilp.Solver.default_config with time_limit = 20.0 }
    ()

(* The paper's Fig. 3: one ingress, two branching paths, a 3-rule policy
   whose DROP r_{1,3} must replicate across both paths when capacities
   force rules off the shared prefix. *)
let figure3_instance ~capacity =
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
        (Util.field ~src:"10.1.0.0/16" ~dst:"10.2.0.0/16" (), Acl.Rule.Permit);
        (Util.field ~src:"10.1.0.0/16" () (* broader drop under the permit *), Acl.Rule.Drop);
        (Util.field ~dst:"10.3.0.0/16" () , Acl.Rule.Drop);
      ]
  in
  Instance.make ~net ~routing ~policies:[ (0, policy) ]
    ~capacities:(Instance.uniform_capacity net capacity)

let test_figure3_loose () =
  let inst = figure3_instance ~capacity:10 in
  let report = Solve.run ~options:(solve_opts ()) inst in
  Alcotest.(check string)
    "status" "optimal"
    (Format.asprintf "%a" Encode.pp_status report.Solve.status);
  let sol = Option.get report.Solve.solution in
  (* With room everywhere the optimum places each needed rule once, at the
     shared ingress switch: 2 drops + 1 dependent permit. *)
  Alcotest.(check int) "entries" 3 (Solution.total_entries sol);
  Util.check_no_violations "figure3 loose" (Prng.create 1) report

let test_figure3_tight () =
  (* Capacity 1 per switch: the block (drop 2 + drop 3 + permit) cannot sit
     together; drop 3 (no deps) replicates along both branches like the
     paper's r_{1,3}. *)
  let inst = figure3_instance ~capacity:2 in
  let report = Solve.run ~options:(solve_opts ()) inst in
  (match report.Solve.status with
  | `Optimal -> ()
  | s -> Alcotest.failf "expected optimal, got %a" Encode.pp_status s);
  let sol = Option.get report.Solve.solution in
  Alcotest.(check bool)
    "some replication" true
    (Solution.total_entries sol >= 3);
  Util.check_no_violations "figure3 tight" (Prng.create 2) report

let test_figure3_infeasible () =
  let inst = figure3_instance ~capacity:0 in
  let report = Solve.run ~options:(solve_opts ()) inst in
  match report.Solve.status with
  | `Infeasible -> ()
  | s -> Alcotest.failf "expected infeasible, got %a" Encode.pp_status s

(* Every solver answer on random instances must verify cleanly, and the
   ILP and SAT engines must agree on feasibility. *)
let test_random_instances_verified () =
  let g = Prng.create 1234 in
  let feasible = ref 0 and infeasible = ref 0 in
  for i = 1 to 40 do
    let inst = Util.random_instance g in
    let report = Solve.run ~options:(solve_opts ()) inst in
    (match report.Solve.status with
    | `Optimal | `Feasible ->
      incr feasible;
      Util.check_no_violations (Printf.sprintf "random %d" i) g report
    | `Infeasible -> incr infeasible
    | `Unknown -> Alcotest.failf "random %d: unknown on tiny instance" i);
    let sat_report =
      Solve.run ~options:(solve_opts ~engine:Solve.Sat_engine ()) inst
    in
    let ilp_feasible =
      match report.Solve.status with `Optimal | `Feasible -> true | _ -> false
    in
    let sat_feasible =
      match sat_report.Solve.status with
      | `Optimal | `Feasible -> true
      | _ -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "random %d: engines agree" i)
      ilp_feasible sat_feasible;
    if sat_feasible then
      Util.check_no_violations (Printf.sprintf "random %d (sat)" i) g sat_report
  done;
  if !feasible = 0 || !infeasible = 0 then
    Alcotest.failf "instance generator too one-sided (%d feasible, %d infeasible)"
      !feasible !infeasible

(* Merging: shared blacklist rules across policies shrink the placement. *)
let merging_instance () =
  let net = Topo.Builder.star ~leaves:3 in
  let g = Prng.create 77 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] ();
        Routing.Path.make ~ingress:2 ~egress:0 ~switches:[ 3; 0; 1 ] ();
      ]
  in
  let blacklist = Classbench.blacklist g ~num:4 in
  let policies =
    List.map
      (fun i ->
        let base = Classbench.policy g ~num_rules:3 in
        (i, Classbench.with_blacklist base blacklist))
      [ 0; 1; 2 ]
  in
  Instance.make ~net ~routing ~policies
    ~capacities:(Instance.uniform_capacity net 30)

let test_merging_reduces_entries () =
  let inst = merging_instance () in
  let plain = Solve.run ~options:(solve_opts ()) inst in
  let merged = Solve.run ~options:(solve_opts ~merge:true ()) inst in
  let entries r = Solution.total_entries (Option.get r.Solve.solution) in
  Alcotest.(check bool) "plain optimal" true (plain.Solve.status = `Optimal);
  Alcotest.(check bool) "merged optimal" true (merged.Solve.status = `Optimal);
  Alcotest.(check bool)
    "merging does not increase entries" true
    (entries merged <= entries plain);
  Alcotest.(check bool)
    "some merge happened" true
    (Solution.merged_cells (Option.get merged.Solve.solution) <> []);
  Util.check_no_violations "merged" (Prng.create 5) merged

(* The paper's Fig. 5 circular dependency: r1 permit / r2 drop with
   opposite relative order in different policies. *)
let test_circular_merge () =
  let r1 = (Util.field ~src:"10.0.0.0/16" ~dst:"11.0.0.0/8" (), Acl.Rule.Permit) in
  let r2 = (Util.field ~src:"10.0.0.0/8" ~dst:"11.0.0.0/16" (), Acl.Rule.Drop) in
  let qa = Acl.Policy.of_fields [ r1; r2 ] in
  let qb = Acl.Policy.of_fields [ r1; r2 ] in
  let qc = Acl.Policy.of_fields [ r2; r1 ] in
  let net = Topo.Builder.star ~leaves:3 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] ();
        Routing.Path.make ~ingress:2 ~egress:0 ~switches:[ 3; 0; 1 ] ();
      ]
  in
  let inst =
    Instance.make ~net ~routing
      ~policies:[ (0, qa); (1, qb); (2, qc) ]
      ~capacities:(Instance.uniform_capacity net 20)
  in
  let inst', plan = Merge.plan inst in
  Alcotest.(check bool) "acyclic after planning" true
    (Merge.order_graph_acyclic inst' plan);
  Alcotest.(check bool) "dummies inserted" true
    (Hashtbl.length (Merge.dummy_set plan) > 0);
  let report = Solve.run ~options:(solve_opts ~merge:true ()) inst in
  (match report.Solve.status with
  | `Optimal | `Feasible -> ()
  | s -> Alcotest.failf "expected a solution, got %a" Encode.pp_status s);
  Util.check_no_violations "circular merge" (Prng.create 6) report

(* Path slicing (Fig. 6): rules disjoint from a path's flow need not ride
   it.  On the branching Fig. 3 topology with per-egress drops and the
   upstream switches full, the unsliced optimum replicates one drop onto
   both branches while slicing places one drop per branch. *)
let test_slicing_reduces_entries () =
  let net = Topo.Builder.figure3 () in
  let flow_to h = Ternary.Field.make ~dst:(Topo.Net.host_prefix h) () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~flow:(flow_to 1) ~ingress:0 ~egress:1
          ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~flow:(flow_to 2) ~ingress:0 ~egress:2
          ~switches:[ 0; 1; 3; 4 ] ();
      ]
  in
  let dst_field h =
    Util.field ~dst:(Ternary.Prefix.to_string (Topo.Net.host_prefix h)) ()
  in
  let policy =
    Acl.Policy.of_fields
      [ (dst_field 1, Acl.Rule.Drop); (dst_field 2, Acl.Rule.Drop) ]
  in
  let inst =
    Instance.make ~net ~routing ~policies:[ (0, policy) ]
      ~capacities:[| 1; 0; 1; 0; 1 |]
  in
  let unsliced = Solve.run ~options:(solve_opts ()) inst in
  (match unsliced.Solve.status with
  | `Optimal -> ()
  | s -> Alcotest.failf "unsliced: expected optimal, got %a" Encode.pp_status s);
  Alcotest.(check int) "unsliced replicates a drop" 3
    (Solution.total_entries (Option.get unsliced.Solve.solution));
  let sliced = Solve.run ~options:(solve_opts ~slice:true ()) inst in
  (match sliced.Solve.status with
  | `Optimal -> ()
  | s -> Alcotest.failf "sliced: expected optimal, got %a" Encode.pp_status s);
  let sol = Option.get sliced.Solve.solution in
  Alcotest.(check int) "one drop per flow" 2 (Solution.total_entries sol);
  Util.check_no_violations "sliced" (Prng.create 7) sliced

let test_upstream_objective () =
  (* Loose capacities: the upstream objective must pull the drop to the
     ingress-side switch. *)
  let inst = figure3_instance ~capacity:10 in
  let report =
    Solve.run ~options:(solve_opts ~objective:Encode.Upstream_drops ()) inst
  in
  let sol = Option.get report.Solve.solution in
  Alcotest.(check bool) "ingress switch used" true
    (sol.Solution.per_switch.(0) <> []);
  Array.iteri
    (fun k cells ->
      if k > 0 then
        Alcotest.(check int) (Printf.sprintf "switch %d empty" k) 0
          (List.length cells))
    sol.Solution.per_switch

let test_greedy_baseline () =
  let inst = figure3_instance ~capacity:10 in
  let layout = Layout.build inst in
  (match Baseline.greedy layout with
  | Baseline.Placed sol ->
    let violations = Verify.structural layout sol in
    Alcotest.(check int) "greedy structurally sound" 0 (List.length violations)
  | Baseline.Stuck _ -> Alcotest.fail "greedy stuck on loose instance");
  Alcotest.(check int) "replicate-all count" (2 * 3)
    (Baseline.replicate_all_count inst)

let test_incremental_install () =
  let net = Topo.Builder.star ~leaves:4 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] () ]
  in
  let g = Prng.create 11 in
  let inst =
    Instance.make ~net ~routing
      ~policies:[ (0, Classbench.policy g ~num_rules:4) ]
      ~capacities:(Instance.uniform_capacity net 10)
  in
  let base_report = Solve.run ~options:(solve_opts ()) inst in
  let base = Option.get base_report.Solve.solution in
  let new_policy = Classbench.policy g ~num_rules:4 in
  let new_path = Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] () in
  let r =
    Incremental.install
      ~options:(solve_opts ())
      ~base
      ~policies:[ (1, new_policy) ]
      ~paths:[ new_path ] ()
  in
  (match r.Incremental.status with
  | `Optimal | `Feasible -> ()
  | s -> Alcotest.failf "install: expected success, got %a" Encode.pp_status s);
  let combined = Option.get r.Incremental.solution in
  Alcotest.(check bool) "capacities hold" true
    (Array.for_all2 ( <= )
       (Solution.switch_usage combined)
       combined.Solution.instance.Instance.capacities);
  let violations = Verify.semantic ~random_samples:15 (Prng.create 12) combined in
  Alcotest.(check int) "combined semantics" 0 (List.length violations);
  (* Removing the new tenant restores the base entry count. *)
  let removed = Incremental.remove ~base:combined ~ingresses:[ 1 ] in
  Alcotest.(check int) "remove restores count"
    (Solution.total_entries base)
    (Solution.total_entries removed)

let test_incremental_reroute () =
  let net = Topo.Builder.star ~leaves:4 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] () ]
  in
  let g = Prng.create 21 in
  let inst =
    Instance.make ~net ~routing
      ~policies:[ (0, Classbench.policy g ~num_rules:5) ]
      ~capacities:(Instance.uniform_capacity net 12)
  in
  let base = Option.get (Solve.run ~options:(solve_opts ()) inst).Solve.solution in
  let new_path = Routing.Path.make ~ingress:0 ~egress:3 ~switches:[ 1; 0; 4 ] () in
  (* A re-route is a teardown plus an install over the new paths. *)
  let r =
    Incremental.install ~options:(solve_opts ())
      ~base:(Incremental.remove ~base ~ingresses:[ 0 ])
      ~policies:[ (0, Option.get (Instance.policy_of base.Solution.instance 0)) ]
      ~paths:[ new_path ] ()
  in
  (match r.Incremental.status with
  | `Optimal | `Feasible -> ()
  | s -> Alcotest.failf "reroute: expected success, got %a" Encode.pp_status s);
  let combined = Option.get r.Incremental.solution in
  let violations = Verify.semantic ~random_samples:15 (Prng.create 22) combined in
  Alcotest.(check int) "rerouted semantics" 0 (List.length violations)

let test_incremental_capacity_exhaustion () =
  (* A full network cannot take another tenant. *)
  let net = Topo.Builder.star ~leaves:2 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] () ]
  in
  let drop_everything =
    Acl.Policy.of_fields [ (Ternary.Field.any, Acl.Rule.Drop) ]
  in
  let inst =
    Instance.make ~net ~routing
      ~policies:[ (0, drop_everything) ]
      ~capacities:[| 1; 1; 1 |]
  in
  let base = Option.get (Solve.run ~options:(solve_opts ()) inst).Solve.solution in
  let r =
    Incremental.install
      ~options:(solve_opts ())
      ~base
      ~policies:
        [ (1, Acl.Policy.of_fields (List.init 4 (fun i ->
              (Ternary.Field.make ~dst:(Topo.Net.host_prefix i) (), Acl.Rule.Drop)))) ]
      ~paths:[ Routing.Path.make ~ingress:1 ~egress:0 ~switches:[ 2; 0; 1 ] () ]
      ()
  in
  match r.Incremental.status with
  | `Infeasible -> ()
  | s -> Alcotest.failf "expected infeasible, got %a" Encode.pp_status s

let suite =
  [
    Alcotest.test_case "figure 3 loose" `Quick test_figure3_loose;
    Alcotest.test_case "figure 3 tight" `Quick test_figure3_tight;
    Alcotest.test_case "figure 3 infeasible" `Quick test_figure3_infeasible;
    Alcotest.test_case "random instances verified" `Slow test_random_instances_verified;
    Alcotest.test_case "merging reduces entries" `Quick test_merging_reduces_entries;
    Alcotest.test_case "circular merge (fig 5)" `Quick test_circular_merge;
    Alcotest.test_case "path slicing" `Quick test_slicing_reduces_entries;
    Alcotest.test_case "upstream objective" `Quick test_upstream_objective;
    Alcotest.test_case "greedy + replicate baselines" `Quick test_greedy_baseline;
    Alcotest.test_case "incremental install/remove" `Quick test_incremental_install;
    Alcotest.test_case "incremental reroute" `Quick test_incremental_reroute;
    Alcotest.test_case "incremental exhaustion" `Quick test_incremental_capacity_exhaustion;
  ]

let test_incremental_update_policy () =
  let net = Topo.Builder.star ~leaves:3 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] () ]
  in
  let g = Prng.create 61 in
  let inst =
    Instance.make ~net ~routing
      ~policies:[ (0, Classbench.policy g ~num_rules:5) ]
      ~capacities:(Instance.uniform_capacity net 12)
  in
  let base = Option.get (Solve.run ~options:(solve_opts ()) inst).Solve.solution in
  (* Swap in a different policy for the same ingress (the paper's rule
     modification = deletion + installation). *)
  let new_policy = Classbench.policy g ~num_rules:7 in
  let r =
    Incremental.install ~options:(solve_opts ())
      ~base:(Incremental.remove ~base ~ingresses:[ 0 ])
      ~policies:[ (0, new_policy) ]
      ~paths:(Routing.Table.paths_from routing 0)
      ()
  in
  (match r.Incremental.status with
  | `Optimal | `Feasible -> ()
  | s -> Alcotest.failf "update: expected success, got %a" Encode.pp_status s);
  let combined = Option.get r.Incremental.solution in
  Alcotest.(check bool) "capacities hold" true
    (Array.for_all2 ( <= )
       (Solution.switch_usage combined)
       combined.Solution.instance.Instance.capacities);
  (* The data plane now implements the new policy. *)
  let violations = Verify.semantic ~random_samples:25 (Prng.create 62) combined in
  Alcotest.(check int) "new policy enforced" 0 (List.length violations);
  match Instance.policy_of combined.Solution.instance 0 with
  | Some q ->
    (* The pipeline may have removed redundant rules; the stored policy
       must still be semantically the new one. *)
    Alcotest.(check bool) "instance updated" true
      (Acl.Semantics.equal q new_policy)
  | None -> Alcotest.fail "policy missing after update"

let suite =
  suite
  @ [
      Alcotest.test_case "incremental policy update" `Quick
        test_incremental_update_policy;
    ]

(* Fuzz the full feature matrix: merging and slicing together, on small
   workload families, every answer verified. *)
let test_feature_matrix_fuzz () =
  let g = Prng.create 808 in
  for i = 1 to 8 do
    let f =
      {
        Workload.k = 4;
        num_policies = 4;
        rules = Prng.int_in g 4 8;
        mergeable = Prng.int_in g 1 3;
        paths = Prng.int_in g 8 16;
        capacity = Prng.int_in g 10 40;
        seed = i;
        slice = true;
        ingress_mode = Workload.Contiguous;
      }
    in
    let inst = Workload.build f in
    List.iter
      (fun (merge, slice) ->
        let report = Solve.run ~options:(solve_opts ~merge ~slice ()) inst in
        match report.Solve.status with
        | `Optimal | `Feasible ->
          Util.check_no_violations
            (Printf.sprintf "fuzz %d merge=%b slice=%b" i merge slice)
            g report
        | `Infeasible | `Unknown -> ())
      [ (false, false); (true, false); (false, true); (true, true) ]
  done

let suite =
  suite
  @ [ Alcotest.test_case "feature matrix fuzz" `Slow test_feature_matrix_fuzz ]

(* ------------------------------------------------------------------ *)
(* Instance.edit against Instance.make over the edited lists           *)

let check_same_instance name (want : Instance.t) (got : Instance.t) =
  if want.Instance.policies <> got.Instance.policies then
    Alcotest.failf "%s: policies differ" name;
  if
    Routing.Table.paths want.Instance.routing
    <> Routing.Table.paths got.Instance.routing
  then Alcotest.failf "%s: Table.paths differ" name;
  Alcotest.(check (list int))
    (name ^ ": routed ingresses")
    (Routing.Table.ingresses want.Instance.routing)
    (Routing.Table.ingresses got.Instance.routing);
  for h = 0 to Topo.Net.num_hosts want.Instance.net - 1 do
    if
      Routing.Table.paths_from want.Instance.routing h
      <> Routing.Table.paths_from got.Instance.routing h
    then Alcotest.failf "%s: paths_from %d differs" name h
  done;
  Alcotest.(check (array int))
    (name ^ ": capacities") want.Instance.capacities got.Instance.capacities;
  Alcotest.(check string) (name ^ ": pp")
    (Format.asprintf "%a" Instance.pp want)
    (Format.asprintf "%a" Instance.pp got)

(* One random edit of [inst]: drop some routed ingresses (and now and
   then a host with no row), append up to three fresh paths, give a
   policy to some path ingresses left without one, and sometimes
   replace the capacities. *)
let random_edit g (inst : Instance.t) =
  let net = inst.Instance.net in
  let hosts = Topo.Net.num_hosts net in
  let rows = Routing.Table.ingresses inst.Instance.routing in
  let drop = List.filter (fun _ -> Prng.int g 4 = 0) rows in
  let drop = if Prng.int g 3 = 0 then Prng.int g hosts :: drop else drop in
  let pool = List.map snd inst.Instance.policies in
  let paths =
    List.filter_map
      (fun _ ->
        let h = Prng.int g hosts in
        let e = (h + 1 + Prng.int g (hosts - 1)) mod hosts in
        Routing.Shortest.random_path g net ~ingress:h ~egress:e)
      (List.init (Prng.int g 4) Fun.id)
  in
  let starts =
    List.map (fun (p : Routing.Path.t) -> p.Routing.Path.ingress) paths
  in
  let routed i =
    (List.mem i rows && not (List.mem i drop)) || List.mem i starts
  in
  let free i =
    routed i
    && not (List.mem_assoc i inst.Instance.policies && not (List.mem i drop))
  in
  let policies =
    List.filter_map
      (fun i ->
        if pool <> [] && free i && Prng.bool g then
          Some (i, Prng.choose_list g pool)
        else None)
      (List.sort_uniq compare (drop @ starts))
  in
  let capacities =
    if Prng.bool g then
      Some (Array.init (Topo.Net.num_switches net) (fun _ -> Prng.int g 50))
    else None
  in
  (drop, policies, paths, capacities)

(* [make] over the lists the edit describes: the kept policies and
   paths, then the added ones. *)
let made (base : Instance.t) (drop, policies, paths, capacities) =
  let gone i = List.mem i drop in
  Instance.make ~net:base.Instance.net
    ~routing:
      (Routing.Table.of_paths
         (List.filter
            (fun (p : Routing.Path.t) -> not (gone p.Routing.Path.ingress))
            (Routing.Table.paths base.Instance.routing)
         @ paths))
    ~policies:
      (List.filter (fun (i, _) -> not (gone i)) base.Instance.policies
      @ policies)
    ~capacities:(Option.value capacities ~default:base.Instance.capacities)

let test_edit_is_make () =
  let edits = ref 0 in
  List.iter
    (fun (k, seed, slice) ->
      let inst =
        Workload.build
          {
            Workload.default with
            Workload.k;
            num_policies = 6;
            rules = 6;
            paths = 24;
            seed;
            slice;
          }
      in
      let g = Prng.create (100 * k + seed) in
      let rec go n ~edited ~expected =
        if n > 0 then begin
          let ((drop, policies, paths, capacities) as e) =
            random_edit g edited
          in
          let edited =
            Instance.edit ~drop ~policies ~paths ?capacities edited
          in
          let expected = made expected e in
          incr edits;
          check_same_instance
            (Printf.sprintf "k=%d seed %d edit %d" k seed n)
            expected edited;
          go (n - 1) ~edited ~expected
        end
      in
      go 8 ~edited:inst ~expected:inst)
    (List.concat_map
       (fun k ->
         List.concat_map
           (fun seed -> [ (k, seed, false); (k, seed, true) ])
           [ 1; 2; 3; 4 ])
       [ 4; 6 ]);
  Alcotest.(check int) "edits checked" 128 !edits

let test_edit_rejects_like_make () =
  let inst = Workload.build Workload.default in
  let net = inst.Instance.net in
  let routing = inst.Instance.routing in
  let policies = inst.Instance.policies in
  let capacities = inst.Instance.capacities in
  let i, q = List.hd policies in
  let unrouted =
    List.find
      (fun h -> Routing.Table.paths_from routing h = [])
      (List.init (Topo.Net.num_hosts net) Fun.id)
  in
  let switches = Topo.Net.num_switches net in
  let stray ~ingress ~switch =
    Routing.Path.make ~ingress ~egress:i ~switches:[ switch ] ()
  in
  let raised f =
    match f () with
    | (_ : Instance.t) -> None
    | exception Invalid_argument m -> Some m
  in
  let case msg ~edit ~make =
    Alcotest.(check (option string)) ("edit: " ^ msg) (Some msg) (raised edit);
    Alcotest.(check (option string)) ("make: " ^ msg) (Some msg) (raised make)
  in
  let with_paths extra =
    Routing.Table.of_paths (extra @ Routing.Table.paths routing)
  in
  case "Instance.make: duplicate ingress policy"
    ~edit:(fun () -> Instance.edit ~policies:[ (i, q) ] inst)
    ~make:(fun () ->
      Instance.make ~net ~routing ~policies:((i, q) :: policies) ~capacities);
  case "Instance.make: policy ingress has no path"
    ~edit:(fun () -> Instance.edit ~policies:[ (unrouted, q) ] inst)
    ~make:(fun () ->
      Instance.make ~net ~routing
        ~policies:((unrouted, q) :: policies)
        ~capacities);
  case "Instance.make: policy ingress is not a host"
    ~edit:(fun () -> Instance.edit ~policies:[ (-1, q) ] inst)
    ~make:(fun () ->
      Instance.make ~net ~routing ~policies:((-1, q) :: policies) ~capacities);
  let p = stray ~ingress:unrouted ~switch:switches in
  case "Instance.make: path switch out of range"
    ~edit:(fun () -> Instance.edit ~paths:[ p ] inst)
    ~make:(fun () ->
      Instance.make ~net ~routing:(with_paths [ p ]) ~policies ~capacities);
  let p = stray ~ingress:(Topo.Net.num_hosts net) ~switch:0 in
  case "Instance.make: path ingress is not a host"
    ~edit:(fun () -> Instance.edit ~paths:[ p ] inst)
    ~make:(fun () ->
      Instance.make ~net ~routing:(with_paths [ p ]) ~policies ~capacities);
  let negative = Array.copy capacities in
  negative.(switches - 1) <- -1;
  case "Instance.make: negative capacity"
    ~edit:(fun () -> Instance.edit ~capacities:negative inst)
    ~make:(fun () ->
      Instance.make ~net ~routing ~policies ~capacities:negative);
  let long = Array.make (switches + 1) 1 in
  case "Instance.make: one capacity per switch required"
    ~edit:(fun () -> Instance.edit ~capacities:long inst)
    ~make:(fun () -> Instance.make ~net ~routing ~policies ~capacities:long)

let suite =
  suite
  @ [
      Alcotest.test_case "Instance.edit equals make over the edited lists"
        `Quick test_edit_is_make;
      Alcotest.test_case "Instance.edit rejects an addition as make does"
        `Quick test_edit_rejects_like_make;
    ]
