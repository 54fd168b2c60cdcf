let m_epochs =
  Telemetry.Metrics.counter ~help:"traffic epochs processed"
    "sdnplace_traffic_epochs_total"

type config = {
  family : Workload.family;
  epochs : int;
  packets : int;
  alpha : float;
  drift : float;
  probes : int;
  hw_frac : float;
}

let default =
  {
    family = Workload.default;
    epochs = 6;
    packets = 4096;
    alpha = 1.1;
    drift = 0.125;
    probes = 4;
    hw_frac = 0.5;
  }

let hw_of_frac tables frac =
  (* Uniform TCAM hardware: every switch gets [frac] of the mean table
     size, so a switch's headroom does not simply mirror its own load.
     The mean is over the switches that hold rules: most switches of a
     placement hold none, and counting them held every switch at the
     1-slot floor for any [frac] up to about 1.3. *)
  let sizes = List.map List.length (Array.to_list tables) in
  let used = List.filter (fun n -> n > 0) sizes in
  let total = List.fold_left ( + ) 0 used in
  let per =
    max 1
      (int_of_float
         (Float.round
            (frac *. float_of_int total
            /. float_of_int (max 1 (List.length used)))))
  in
  Array.map (fun _ -> per) tables

type epoch_report = {
  e_index : int;
  e_hits : int;
  e_misses : int;
  e_dhits : int;
  e_violations : int;
  e_stats : Cache.stats;
  e_check : Cache.check_report;
}

let line r =
  let total = r.e_hits + r.e_misses in
  let rate = if total = 0 then 1.0 else float_of_int r.e_hits /. float_of_int total in
  Printf.sprintf
    "epoch=%d hits=%d misses=%d dhits=%d rate=%.4f res=%d deleg=%d pin=%d \
     over=%d viol=%d chk=%d/%d/%d"
    r.e_index r.e_hits r.e_misses r.e_dhits rate r.e_stats.Cache.resident
    r.e_stats.Cache.delegated r.e_stats.Cache.pinned r.e_stats.Cache.overflow
    r.e_violations
    r.e_check.Cache.guard_violations r.e_check.Cache.coverage_violations
    r.e_check.Cache.capacity_violations

let validate cfg =
  if cfg.epochs < 0 then invalid_arg "Controller: epochs < 0";
  if cfg.packets < 0 then invalid_arg "Controller: packets < 0";
  if cfg.probes < 1 then invalid_arg "Controller: probes < 1";
  if cfg.hw_frac <= 0.0 then invalid_arg "Controller: hw_frac <= 0"

(* Probe packets target real rule fields: for each path, the drop rules
   of its ingress policy that can fire inside the path's flow space.  A
   uniform draw over the raw flow space almost never hits a classbench
   rule, which would leave the hit accounting vacuous.  Each flow
   concentrates on its own few rules (offset by flow id), so rule
   popularity follows the Zipf flow ranks and drifts with them — a
   uniform per-probe rule choice would flatten popularity into plain
   match-priority order. *)
let probe_field paths (full : Netsim.entry list array) =
  let targets =
    Array.map
      (fun (p : Routing.Path.t) ->
        let seen = Hashtbl.create 8 in
        let acc = ref [] in
        Array.iter
          (List.iter (fun (en : Netsim.entry) ->
               let rule = en.Netsim.rule in
               if
                 Acl.Rule.is_drop rule
                 && List.exists
                      (fun tag -> Netsim.base_tag tag = p.Routing.Path.ingress)
                      en.Netsim.tags
                 && not (Hashtbl.mem seen rule.Acl.Rule.priority)
               then
                 match
                   Ternary.Field.inter rule.Acl.Rule.field p.Routing.Path.flow
                 with
                 | Some f ->
                   Hashtbl.add seen rule.Acl.Rule.priority ();
                   acc := f :: !acc
                 | None -> ()))
          full;
        Array.of_list (List.rev !acc))
      paths
  in
  fun f k ->
    let tgt = targets.(f) in
    if Array.length tgt = 0 then paths.(f).Routing.Path.flow
    else tgt.((f + k) mod Array.length tgt)

let run cfg =
  validate cfg;
  let inst = Workload.build cfg.family in
  let paths = Routing.Table.paths inst.Placement.Instance.routing in
  if paths = [] then invalid_arg "Controller: no routed paths";
  let sol =
    match (Placement.Solve.run inst).Placement.Solve.solution with
    | Some s -> s
    | None -> invalid_arg "Controller: initial placement infeasible"
  in
  let full = (Placement.Tables.of_solution sol).Placement.Tables.tables in
  let cache =
    Cache.create ~net:inst.Placement.Instance.net ~paths
      ~hw:(hw_of_frac full cfg.hw_frac) full
  in
  let check = Cache.check cache in
  let paths = Array.of_list paths in
  let field = probe_field paths full in
  let zs =
    Zipf.create
      {
        Zipf.flows = Array.length paths;
        packets = cfg.packets;
        alpha = cfg.alpha;
        drift = cfg.drift;
        seed = cfg.family.Workload.seed;
      }
  in
  (* One epoch: walk the next traffic matrix through both the full and
     the cached tables, counting the probes whose verdicts disagree. *)
  let run_epoch i =
    let h0 = Cache.hits cache
    and m0 = Cache.misses cache
    and d0 = Cache.delegated_hits cache in
    let violations = ref 0 in
    Zipf.walk ~seed:cfg.family.Workload.seed ~probes:cfg.probes (Zipf.next zs)
      ~field (fun f pkt w ->
        let res = Cache.account cache ~path:paths.(f) ~weight:w pkt in
        (* the delegation contract preserves the verdict, not the drop
           location: a delegated drop fires at an on-path neighbor *)
        let agree =
          match (res.Cache.w_full, res.Cache.w_cached) with
          | Netsim.Delivered, Netsim.Delivered -> true
          | Netsim.Dropped _, Netsim.Dropped _ -> true
          | _ -> false
        in
        if not agree then incr violations);
    Telemetry.Metrics.incr m_epochs;
    {
      e_index = i;
      e_hits = Cache.hits cache - h0;
      e_misses = Cache.misses cache - m0;
      e_dhits = Cache.delegated_hits cache - d0;
      e_violations = !violations;
      e_stats = Cache.stats cache;
      e_check = check;
    }
  in
  let reports = ref [] in
  for i = 0 to cfg.epochs - 1 do
    reports :=
      Telemetry.Trace.with_span "traffic.epoch" (fun () -> run_epoch i)
      :: !reports
  done;
  List.rev !reports
