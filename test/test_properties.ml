(* Cross-cutting qcheck properties of the whole pipeline: relations that
   must hold between solver runs, not just within one. *)
open Placement

let qtest = QCheck_alcotest.to_alcotest

let options ?(merge = false) ?(slice = false) () =
  Solve.options ~merge ~slice
    ~ilp_config:{ Ilp.Solver.default_config with time_limit = 20.0 }
    ()

(* Only compare proven outcomes; anything time-limited aborts the case. *)
let entries_opt inst opts =
  let report = Solve.run ~options:opts inst in
  match (report.Solve.status, report.Solve.solution) with
  | `Optimal, Some sol -> Some (Solution.total_entries sol)
  | `Infeasible, _ -> None
  | _ -> raise Exit

let family_gen =
  QCheck.Gen.(
    map
      (fun seed ->
        let g = Prng.create seed in
        {
          Workload.k = 4;
          num_policies = Prng.int_in g 2 4;
          rules = Prng.int_in g 3 8;
          mergeable = Prng.int_in g 0 3;
          paths = Prng.int_in g 6 14;
          capacity = Prng.int_in g 6 30;
          seed;
          slice = true;
          ingress_mode = Workload.Contiguous;
        })
      int)

let family_arb =
  QCheck.make
    ~print:(fun (f : Workload.family) ->
      Printf.sprintf "seed=%d policies=%d rules=%d mr=%d paths=%d cap=%d"
        f.Workload.seed f.Workload.num_policies f.Workload.rules
        f.Workload.mergeable f.Workload.paths f.Workload.capacity)
    family_gen

let prop_capacity_monotone =
  QCheck.Test.make ~name:"optimum is monotone in capacity" ~count:15 family_arb
    (fun f ->
      try
        let inst c = Workload.build { f with Workload.capacity = c } in
        let small = entries_opt (inst f.Workload.capacity) (options ()) in
        let big = entries_opt (inst (f.Workload.capacity + 10)) (options ()) in
        match (small, big) with
        | Some s, Some b -> b <= s (* more room never costs entries *)
        | None, _ -> true (* infeasible may become feasible *)
        | Some _, None -> false (* feasible must stay feasible *)
      with Exit -> QCheck.assume_fail ())

let prop_merge_never_worse =
  QCheck.Test.make ~name:"merging never increases the optimum" ~count:15
    family_arb (fun f ->
      try
        let f = { f with Workload.mergeable = max 1 f.Workload.mergeable } in
        let inst = Workload.build f in
        match (entries_opt inst (options ()), entries_opt inst (options ~merge:true ())) with
        | Some plain, Some merged -> merged <= plain
        | None, _ -> true (* merging can rescue infeasibility *)
        | Some _, None -> false
      with Exit -> QCheck.assume_fail ())

let prop_slice_never_worse =
  QCheck.Test.make ~name:"slicing never increases the optimum" ~count:15
    family_arb (fun f ->
      try
        let inst = Workload.build f in
        match (entries_opt inst (options ()), entries_opt inst (options ~slice:true ())) with
        | Some unsliced, Some sliced -> sliced <= unsliced
        | None, _ -> true
        | Some _, None -> false
      with Exit -> QCheck.assume_fail ())

let prop_install_remove_roundtrip =
  QCheck.Test.make ~name:"install then remove restores entry count" ~count:10
    family_arb (fun f ->
      try
        let f = { f with Workload.capacity = f.Workload.capacity + 30 } in
        let inst = Workload.build f in
        let report = Solve.run ~options:(options ()) inst in
        match report.Solve.solution with
        | None -> QCheck.assume_fail ()
        | Some base ->
          let net = inst.Instance.net in
          let g = Prng.create (f.Workload.seed lxor 77) in
          let newcomer = Topo.Net.num_hosts net - 1 in
          QCheck.assume (Instance.policy_of inst newcomer = None);
          let egress = 1 in
          let path =
            Option.get
              (Routing.Shortest.random_path g net ~ingress:newcomer ~egress)
          in
          let r =
            Incremental.install ~options:(options ()) ~base
              ~policies:[ (newcomer, Classbench.policy g ~num_rules:4) ]
              ~paths:[ path ] ()
          in
          (match r.Incremental.solution with
          | None -> true (* exhausted capacity: acceptable *)
          | Some combined ->
            let restored =
              Incremental.remove ~base:combined ~ingresses:[ newcomer ]
            in
            Solution.total_entries restored = Solution.total_entries base)
      with Exit -> QCheck.assume_fail ())

let prop_engines_agree_on_feasibility =
  QCheck.Test.make ~name:"ilp and sat agree on feasibility" ~count:15
    family_arb (fun f ->
      try
        let inst = Workload.build f in
        let ilp = entries_opt inst (options ()) <> None in
        let sat_report =
          Solve.run ~options:(Solve.options ~engine:Solve.Sat_engine ()) inst
        in
        let sat =
          match sat_report.Solve.status with
          | `Feasible | `Optimal -> true
          | `Infeasible -> false
          | `Unknown -> raise Exit
        in
        ilp = sat
      with Exit -> QCheck.assume_fail ())

let suite =
  [
    qtest prop_capacity_monotone;
    qtest prop_merge_never_worse;
    qtest prop_slice_never_worse;
    qtest prop_install_remove_roundtrip;
    qtest prop_engines_agree_on_feasibility;
  ]
