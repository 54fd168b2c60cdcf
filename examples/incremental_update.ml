(* Online network changes without re-solving from scratch.

   The paper's Section IV-E observation: a full ILP solve is fine when a
   new ACL policy rolls out (rare), but routing changes and tenant churn
   need sub-second reactions.  The incremental mode freezes every
   existing placement, computes the spare capacity it leaves, and solves
   only the delta.

   Two operations cover every change: Incremental.install places new
   policies in the spare capacity, and Incremental.remove tears
   placements down.  Any other change is a teardown plus an install:
   a re-route removes the tenant and installs its policy again over the
   new paths, and a policy update (the paper's rule addition, removal or
   modification) removes it and installs the new policy over its
   existing paths.

   This example: solve a base network; then
     1. a new tenant arrives  (install),
     2. an existing tenant is re-routed  (remove + install),
     3. a tenant leaves  (remove),
   timing each step and verifying the final data plane.

   Run with:  dune exec examples/incremental_update.exe *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let options =
  Placement.Solve.options
    ~ilp_config:{ Ilp.Solver.default_config with time_limit = 30.0 }
    ()

let random_path g net ~ingress =
  let hosts = Topo.Net.num_hosts net in
  let rec pick () =
    let e = Prng.int g hosts in
    if e = ingress then pick () else e
  in
  let egress = pick () in
  Option.get (Routing.Shortest.random_path g net ~ingress ~egress)

let () =
  let g = Prng.create 2026 in
  let inst =
    Workload.build
      { Workload.default with Workload.rules = 20; paths = 48; capacity = 60 }
  in
  let report, base_time = wall (fun () -> Placement.Solve.run ~options inst) in
  let base = Option.get report.Placement.Solve.solution in
  Format.printf "base solve:   %a in %.3fs@." Placement.Solution.pp_summary base
    base_time;
  let net = inst.Placement.Instance.net in

  (* 1. Tenant arrival: a policy on a previously unused host. *)
  let newcomer = Topo.Net.num_hosts net - 1 in
  let new_policy = Classbench.policy g ~num_rules:20 in
  let result, dt =
    wall (fun () ->
        Placement.Incremental.install ~options ~base
          ~policies:[ (newcomer, new_policy) ]
          ~paths:[ random_path g net ~ingress:newcomer ]
          ())
  in
  let after_install =
    match result.Placement.Incremental.solution with
    | Some s -> s
    | None -> failwith "tenant arrival should fit in the spare capacity"
  in
  Format.printf "install:      %a in %.0fms (vs %.3fs from scratch)@."
    Placement.Solution.pp_summary after_install (dt *. 1000.0) base_time;

  (* 2. Routing change for one existing tenant: both of its paths move. *)
  let moved = List.hd (Placement.Instance.ingresses inst) in
  let result, dt =
    wall (fun () ->
        Placement.Incremental.install ~options
          ~base:
            (Placement.Incremental.remove ~base:after_install
               ~ingresses:[ moved ])
          ~policies:
            [
              ( moved,
                Option.get
                  (Placement.Instance.policy_of
                     after_install.Placement.Solution.instance moved) );
            ]
          ~paths:
            [ random_path g net ~ingress:moved; random_path g net ~ingress:moved ]
          ())
  in
  let after_reroute =
    match result.Placement.Incremental.solution with
    | Some s -> s
    | None -> failwith "reroute should succeed"
  in
  Format.printf "reroute:      %a in %.0fms@." Placement.Solution.pp_summary
    after_reroute (dt *. 1000.0);

  (* 3. Tenant departure: pure bookkeeping. *)
  let after_remove =
    Placement.Incremental.remove ~base:after_reroute ~ingresses:[ newcomer ]
  in
  Format.printf "remove:       %a@." Placement.Solution.pp_summary after_remove;

  (* The combined placement still matches every remaining policy. *)
  let violations =
    Placement.Verify.semantic ~random_samples:15 (Prng.create 3) after_remove
  in
  Format.printf "final semantic check: %s@."
    (if violations = [] then "passed"
     else Printf.sprintf "%d violations" (List.length violations));
  assert (violations = [])
