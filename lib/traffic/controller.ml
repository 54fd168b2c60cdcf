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
  decay : float;
  adaptive : bool;
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
    decay = Cache.default_decay;
    adaptive = true;
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
  e_stats : Cache.rebalance_stats;
  e_check : Cache.check_report;
}

let line r =
  let total = r.e_hits + r.e_misses in
  let rate = if total = 0 then 1.0 else float_of_int r.e_hits /. float_of_int total in
  Printf.sprintf
    "epoch=%d hits=%d misses=%d dhits=%d rate=%.4f res=%d deleg=%d evict=%d \
     newdeleg=%d pin=%d over=%d viol=%d chk=%d/%d/%d"
    r.e_index r.e_hits r.e_misses r.e_dhits rate r.e_stats.Cache.resident
    r.e_stats.Cache.delegated r.e_stats.Cache.evictions
    r.e_stats.Cache.delegations_new r.e_stats.Cache.pinned
    r.e_stats.Cache.overflow r.e_violations
    r.e_check.Cache.guard_violations r.e_check.Cache.coverage_violations
    r.e_check.Cache.capacity_violations

(* The snapshot: the complete controller state at an epoch boundary.
   The full tables ride along so [resume] rebuilds the cache without
   solving again.  It is sealed under [snapshot_magic]
   ({!Journal.Wal.seal}), so a torn blob or one of another version is
   refused before [Marshal] reads it. *)
type snapshot = {
  s_epoch : int;
  s_full : Netsim.entry list array;
  s_cache : string;
  s_violations : int;
  s_reports : epoch_report list;  (* newest first *)
  s_stats : Cache.rebalance_stats;
}

let snapshot_magic = "sdnplace-caching/1\n"

type t = {
  cfg : config;
  store : Journal.Store.t option;
  cache : Cache.t;
  paths : Routing.Path.t array;
  field : int -> int -> Ternary.Field.t;  (* flow, probe -> probe field *)
  zs : Zipf.t;
  mutable epoch : int;  (* next epoch to run *)
  mutable violations : int;
  mutable reports : epoch_report list;  (* newest first *)
  mutable last_stats : Cache.rebalance_stats;
}

let epoch t = t.epoch
let violations t = t.violations
let reports t = List.rev t.reports

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

(* The network and routed paths of an instance (the paths are the
   cache's flow universe). *)
let routed (inst : Placement.Instance.t) =
  let paths = Routing.Table.paths inst.Placement.Instance.routing in
  if paths = [] then invalid_arg "Controller: no routed paths";
  (inst.Placement.Instance.net, paths)

let make ?store cfg ~cache ~paths ~epoch ~violations ~reports ~last_stats =
  let paths = Array.of_list paths in
  let zcfg =
    {
      Zipf.flows = Array.length paths;
      packets = cfg.packets;
      alpha = cfg.alpha;
      drift = cfg.drift;
      seed = cfg.family.Workload.seed;
    }
  in
  {
    cfg;
    store;
    cache;
    paths;
    field = probe_field paths (Cache.full_tables cache);
    zs = Zipf.at zcfg epoch;
    epoch;
    violations;
    reports;
    last_stats;
  }

let persist t =
  Option.iter
    (fun (store : Journal.Store.t) ->
      let s =
        {
          s_epoch = t.epoch;
          s_full = Cache.full_tables t.cache;
          s_cache = Cache.capture t.cache;
          s_violations = t.violations;
          s_reports = t.reports;
          s_stats = t.last_stats;
        }
      in
      store.Journal.Store.snap_write (Journal.Wal.seal ~magic:snapshot_magic s))
    t.store

let create ?store cfg =
  validate cfg;
  let inst = Workload.build cfg.family in
  let net, paths = routed inst in
  let sol =
    match (Placement.Solve.run inst).Placement.Solve.solution with
    | Some s -> s
    | None -> invalid_arg "Controller: initial placement infeasible"
  in
  let { Placement.Tables.netsim; splits = _ } =
    Placement.Tables.to_netsim sol
  in
  let full = Array.init (Topo.Net.num_switches net) (Netsim.table netsim) in
  let cache =
    Cache.create ~decay:cfg.decay ~net ~paths ~hw:(hw_of_frac full cfg.hw_frac)
      full
  in
  (* Both modes place once up front (coverage must hold from packet one);
     only the adaptive controller ever rebalances again. *)
  let last_stats = Cache.rebalance cache in
  let t =
    make ?store cfg ~cache ~paths ~epoch:0 ~violations:0 ~reports:[] ~last_stats
  in
  persist t;
  t

(* ------------------------------------------------------------------ *)
(* The epoch pipeline                                                  *)

let walk t (e : Zipf.epoch) =
  Zipf.walk ~seed:t.cfg.family.Workload.seed ~probes:t.cfg.probes e
    ~field:t.field
    (fun f pkt w ->
      let res = Cache.account t.cache ~path:t.paths.(f) ~weight:w pkt in
      (* the delegation contract preserves the verdict, not the drop
         location: a delegated drop fires at an on-path neighbor *)
      let agree =
        match (res.Cache.w_full, res.Cache.w_cached) with
        | Netsim.Delivered, Netsim.Delivered -> true
        | Netsim.Dropped _, Netsim.Dropped _ -> true
        | _ -> false
      in
      if not agree then t.violations <- t.violations + 1)

let run_epoch t =
  let i = t.epoch in
  let h0 = Cache.hits t.cache
  and m0 = Cache.misses t.cache
  and d0 = Cache.delegated_hits t.cache
  and v0 = t.violations in
  if t.cfg.adaptive then Cache.decay t.cache;
  walk t (Zipf.next t.zs);
  let stats =
    if t.cfg.adaptive then begin
      t.last_stats <- Cache.rebalance t.cache;
      t.last_stats
    end
    else { t.last_stats with Cache.evictions = 0; delegations_new = 0 }
  in
  let er =
    {
      e_index = i;
      e_hits = Cache.hits t.cache - h0;
      e_misses = Cache.misses t.cache - m0;
      e_dhits = Cache.delegated_hits t.cache - d0;
      e_violations = t.violations - v0;
      e_stats = stats;
      e_check = Cache.check t.cache;
    }
  in
  t.reports <- er :: t.reports;
  t.epoch <- i + 1;
  Telemetry.Metrics.incr m_epochs;
  persist t;
  er

let step t =
  if t.epoch >= t.cfg.epochs then None
  else Some (Telemetry.Trace.with_span "traffic.epoch" (fun () -> run_epoch t))

let run t =
  let rec go () = match step t with None -> reports t | Some _ -> go () in
  go ()

(* ------------------------------------------------------------------ *)
(* Crash-resume                                                        *)

let read_snapshot (store : Journal.Store.t) =
  match store.Journal.Store.snap_read () with
  | None -> Error "no snapshot"
  | Some blob ->
    (Journal.Wal.unseal ~magic:snapshot_magic blob : (snapshot, string) result)

let resume ~store cfg =
  match read_snapshot store with
  | Error _ as e -> e
  | Ok s -> (
    match
      validate cfg;
      let net, paths = routed (Workload.build cfg.family) in
      if Array.length s.s_full <> Topo.Net.num_switches net then
        invalid_arg "snapshot does not match the config";
      let cache = Cache.restore ~net ~paths s.s_full s.s_cache in
      make ~store cfg ~cache ~paths ~epoch:s.s_epoch ~violations:s.s_violations
        ~reports:s.s_reports ~last_stats:s.s_stats
    with
    | t -> Ok t
    | exception (Invalid_argument msg | Failure msg) -> Error msg)
