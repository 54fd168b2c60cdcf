open Placement

type config = {
  deadline_s : float;
  solve_options : Solve.options;
}

let default_config =
  { deadline_s = 30.0; solve_options = Solve.default_options }

(* The solve rungs, in ladder order; quarantine is always the floor. *)
let ladder_rungs = [ Report.Incremental; Report.Full_resolve; Report.Greedy ]

(* Random probe packets per path in the semantic check. *)
let verify_samples = 10

(* Seed of the verification and re-routing draws. *)
let verify_seed = 0x5EED

(* Every this many verifies, the semantic and live checks walk every
   ingress whatever the memo holds. *)
let full_verify_every = 16

let m_rung name =
  Telemetry.Metrics.counter ~help:"events by degradation-ladder rung reached"
    ~labels:[ ("rung", name) ]
    "sdnplace_runtime_events_total"

let m_rung_noop = m_rung "noop"

let m_rung_incremental = m_rung "incremental"

let m_rung_full = m_rung "full_resolve"

let m_rung_greedy = m_rung "greedy"

let m_rung_quarantine = m_rung "quarantine"

let rung_counter = function
  | Report.Noop -> m_rung_noop
  | Report.Incremental -> m_rung_incremental
  | Report.Full_resolve -> m_rung_full
  | Report.Greedy -> m_rung_greedy
  | Report.Quarantine -> m_rung_quarantine

let m_event_s =
  Telemetry.Metrics.histogram ~help:"per-event reconciliation wall time"
    "sdnplace_runtime_event_seconds"

let m_rollbacks =
  Telemetry.Metrics.counter
    ~help:"direct-plan updates rolled back to the pre-event tables"
    "sdnplace_runtime_rollbacks_total"

let m_quarantined =
  Telemetry.Metrics.counter ~help:"ingresses newly fenced into quarantine"
    "sdnplace_runtime_quarantined_ingresses_total"

let m_verify_failed check =
  Telemetry.Metrics.counter
    ~help:"post-event verification checks that failed, by check"
    ~labels:[ ("check", check) ]
    "sdnplace_runtime_verify_failures_total"

let m_verify_structural = m_verify_failed "structural"

let m_verify_semantic = m_verify_failed "semantic"

let m_verify_live = m_verify_failed "live"

let m_verify_fence = m_verify_failed "fence"

let m_verify_exception = m_verify_failed "exception"

let m_verify_skipped check =
  Telemetry.Metrics.counter
    ~help:"ingresses whose post-event verdict was reused, by check"
    ~labels:[ ("check", check) ]
    "sdnplace_runtime_verify_skipped_total"

let m_skipped_semantic = m_verify_skipped "semantic"

let m_skipped_live = m_verify_skipped "live"

let m_switches_rebuilt =
  Telemetry.Metrics.counter
    ~help:"switches whose declared table was ordered afresh"
    "sdnplace_runtime_switches_rebuilt_total"

let m_structural_checked =
  Telemetry.Metrics.counter
    ~help:"policies checked for coverage and dependencies"
    "sdnplace_runtime_structural_checked_total"

(* A fenced ingress: the paths and probe packets remembered at quarantine
   time, so fail-closed verification keeps working after the policy is
   stripped from the good solution. *)
type fenced = {
  q_ingress : int;
  q_paths : Routing.Path.t list;
  q_probes : Ternary.Packet.t list;
}

(* What the last verify checked an ingress against, and its verdicts. *)
type seen = {
  s_policy : Acl.Policy.t;
  s_paths : Routing.Path.t list;
  s_fenced : bool;
  s_structural : bool;
  s_semantic : bool;
  s_live : bool;
}

(* An ingress's stored verdicts this verify may reuse, by check. *)
type kept = {
  k_structural : bool option;
  k_semantic : bool option;
  k_live : bool option;
}

(* The last verify's inputs: the good solution's cells (a copy of the
   array), the declared tables built from them, a snapshot of the live
   tables, and each policy ingress's verdicts.  In memory only.  An
   engine starts from the memo of its first placement ({!seed_memo}). *)
type memo = {
  m_sliced : bool;
  m_cells : Solution.cell list array;
  m_declared : Netsim.entry list array;
  m_live : Netsim.entry list array;
  m_seen : (int, seen) Hashtbl.t;
}

type t = {
  config : config;
  fault : Fault_plan.t;
  api : Switch_api.t;
  mutable good : Solution.t;
  mutable quarantine : fenced list;
  mutable dead_switches : int list;
  mutable dead_links : (int * int) list;
  route_prng : Prng.t;
  verify_prng : Prng.t;
  mutable memo : memo;
  mutable verifies : int;  (** since the engine was built *)
}

let inst t = t.good.Solution.instance
let net t = (inst t).Instance.net

let sort_uniq l = List.sort_uniq compare l

let witnesses n q = List.of_seq (Seq.take n (Acl.Policy.witness_seq q))

(* The memo of [good] and its declared [tables]: the first verify
   patches them.  That verify is a full one, which reads neither the
   live snapshot nor the verdicts, so the declared tables stand in for
   the one and there are none of the other. *)
let seed_memo (good : Solution.t) tables =
  {
    m_sliced = good.Solution.sliced;
    m_cells = Array.copy good.Solution.per_switch;
    m_declared = tables;
    m_live = tables;
    m_seen = Hashtbl.create 0;
  }

let create ?(config = default_config) ?(fault = Fault_plan.faultless ()) good =
  let tables = (Tables.of_solution good).Tables.tables in
  {
    config;
    fault;
    (* The switch API writes into its array; the memo keeps this one. *)
    api = Switch_api.create ~fault (Array.copy tables);
    good;
    quarantine = [];
    dead_switches = [];
    dead_links = [];
    route_prng = Prng.create ((verify_seed * 2) + 1);
    verify_prng = Prng.create verify_seed;
    memo = seed_memo good tables;
    verifies = 0;
  }

(* ------------------------------------------------------------------ *)
(* Durable state: everything a crash-safe journal must persist to
   rebuild an engine that behaves byte-for-byte like the original.
   The clock and config stay out (closures / caller policy) and are
   re-supplied at [restore]; [p_fault] and the fault plan referenced
   inside [p_api] are the same object, and [Marshal] preserves that
   sharing as long as the whole record is serialized in one call. *)

type persisted = {
  p_api : Switch_api.t;
  p_fault : Fault_plan.t;
  p_good : Solution.t;
  p_quarantine : fenced list;
  p_dead_switches : int list;
  p_dead_links : (int * int) list;
  p_route_prng : Prng.t;
  p_verify_prng : Prng.t;
}

let capture t =
  {
    p_api = t.api;
    p_fault = t.fault;
    p_good = t.good;
    p_quarantine = t.quarantine;
    p_dead_switches = t.dead_switches;
    p_dead_links = t.dead_links;
    p_route_prng = t.route_prng;
    p_verify_prng = t.verify_prng;
  }

let restore ?(config = default_config) p =
  {
    config;
    fault = p.p_fault;
    api = p.p_api;
    good = p.p_good;
    quarantine = p.p_quarantine;
    dead_switches = p.p_dead_switches;
    dead_links = p.p_dead_links;
    route_prng = p.p_route_prng;
    verify_prng = p.p_verify_prng;
    memo = seed_memo p.p_good (Tables.of_solution p.p_good).Tables.tables;
    verifies = 0;
  }

let good t = t.good
let switch_api t = t.api
let table_snapshot t = Switch_api.snapshot t.api

let live_entries t =
  Array.fold_left (fun acc es -> acc + List.length es) 0 (Switch_api.tables t.api)

let quarantined t = List.sort compare (List.map (fun q -> q.q_ingress) t.quarantine)
let dead_switches t = List.sort compare t.dead_switches

(* ------------------------------------------------------------------ *)
(* Quarantine fencing                                                  *)

let fence_entry i =
  {
    Netsim.tags = [ i ];
    rule =
      Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Drop
        ~priority:max_int;
  }

let is_fence i (e : Netsim.entry) =
  e.Netsim.tags = [ i ] && e.Netsim.rule.Acl.Rule.priority = max_int

let force_fence t q =
  let k = Topo.Net.host_attach (net t) q.q_ingress in
  let live = Switch_api.tables t.api in
  if not (List.exists (is_fence q.q_ingress) live.(k)) then
    Switch_api.force_set t.api ~switch:k (fence_entry q.q_ingress :: live.(k))

(* ------------------------------------------------------------------ *)
(* Dead infrastructure and re-routing                                  *)

let link_key u v = (min u v, max u v)

let path_alive t (p : Routing.Path.t) =
  let sw = p.Routing.Path.switches in
  let ok = ref (not (Array.exists (fun k -> List.mem k t.dead_switches) sw)) in
  Array.iteri
    (fun idx k ->
      if idx > 0 && List.mem (link_key sw.(idx - 1) k) t.dead_links then
        ok := false)
    sw;
  !ok

let pruned_net t =
  let n = net t in
  let dead k = List.mem k t.dead_switches in
  let edges =
    List.filter
      (fun (a, b) ->
        not (dead a || dead b || List.mem (link_key a b) t.dead_links))
      (Topo.Net.edges n)
  in
  let kinds = Array.init (Topo.Net.num_switches n) (Topo.Net.kind n) in
  let host_attach = Array.init (Topo.Net.num_hosts n) (Topo.Net.host_attach n) in
  Topo.Net.create ~kinds ~num_switches:(Topo.Net.num_switches n) ~edges
    ~host_attach ()

let reroute_path t pruned (p : Routing.Path.t) =
  let dead h = List.mem (Topo.Net.host_attach (net t) h) t.dead_switches in
  if dead p.Routing.Path.ingress || dead p.Routing.Path.egress then None
  else
    Routing.Shortest.random_path ~flow:p.Routing.Path.flow t.route_prng pruned
      ~ingress:p.Routing.Path.ingress ~egress:p.Routing.Path.egress

(* Keep alive paths as they are; re-route the rest around the dead
   infrastructure, dropping those that cannot be. *)
let fix_paths t paths =
  let pruned = lazy (pruned_net t) in
  List.filter_map
    (fun p ->
      if path_alive t p then Some p else reroute_path t (Lazy.force pruned) p)
    paths

(* ------------------------------------------------------------------ *)
(* Event planning                                                      *)

(* What an event asks of the placement layer: tear down [strip], then
   (re-)place [sub_policies] over [sub_paths] under [capacities].
   [unroutable] ingresses have no live path and go straight to
   quarantine; [release] are fenced ingresses whose tenant is leaving,
   so their fence is lifted. *)
type goal = {
  strip : int list;
  sub_policies : (int * Acl.Policy.t) list;
  sub_paths : Routing.Path.t list;
  capacities : int array;
  unroutable : int list;
  release : int list;
}

let cur_paths t i = Routing.Table.paths_from (inst t).Instance.routing i
let has_policy t i = Instance.policy_of (inst t) i <> None
let in_quarantine t i = List.exists (fun q -> q.q_ingress = i) t.quarantine

(* Every event is a re-placement: strip [strip], then place [place] over
   [paths] fixed up around the dead infrastructure.  An ingress of
   [place] left without a live path is unroutable. *)
let goal t ?(release = []) ~strip ~place ~paths capacities =
  let fixed = fix_paths t paths in
  let routable (i, _) =
    List.exists (fun (p : Routing.Path.t) -> p.Routing.Path.ingress = i) fixed
  in
  let placed, lost = List.partition routable place in
  Ok
    {
      strip;
      sub_policies = placed;
      sub_paths = fixed;
      capacities;
      unroutable = List.map fst lost;
      release;
    }

let plan t event =
  let caps = (inst t).Instance.capacities in
  let n = net t in
  let current is =
    List.map (fun i -> (i, Option.get (Instance.policy_of (inst t) i))) is
  in
  (* Re-place existing ingresses over their current paths. *)
  let replace is capacities =
    let is = sort_uniq is in
    goal t ~strip:is ~place:(current is)
      ~paths:(List.concat_map (cur_paths t) is)
      capacities
  in
  let broken () =
    List.filter
      (fun i -> List.exists (fun p -> not (path_alive t p)) (cur_paths t i))
      (Instance.ingresses (inst t))
  in
  match event with
  | Event.Install { ingress; policy; paths } ->
    if ingress < 0 || ingress >= Topo.Net.num_hosts n then Error "unknown ingress"
    else if has_policy t ingress then Error "ingress already carries a policy"
    else if paths = [] then Error "no paths"
    else if
      List.exists
        (fun (p : Routing.Path.t) -> p.Routing.Path.ingress <> ingress)
        paths
    then Error "path/ingress mismatch"
    else goal t ~strip:[] ~place:[ (ingress, policy) ] ~paths caps
  | Event.Reroute { ingresses; paths } ->
    let ingresses = sort_uniq ingresses in
    if ingresses = [] then Error "no ingresses"
    else if List.exists (fun i -> not (has_policy t i)) ingresses then
      Error "reroute of an ingress without a policy"
    else if
      List.exists
        (fun (p : Routing.Path.t) ->
          not (List.mem p.Routing.Path.ingress ingresses))
        paths
    then Error "path/ingress mismatch"
    else goal t ~strip:ingresses ~place:(current ingresses) ~paths caps
  | Event.Update_policy { ingress; policy } ->
    if not (has_policy t ingress) then
      Error "update of an ingress without a policy"
    else
      goal t ~strip:[ ingress ] ~place:[ (ingress, policy) ]
        ~paths:(cur_paths t ingress) caps
  | Event.Remove { ingresses } ->
    let ingresses = sort_uniq ingresses in
    let present = List.filter (has_policy t) ingresses in
    let release = List.filter (in_quarantine t) ingresses in
    if present = [] && release = [] then Error "no such ingress"
    else goal t ~release ~strip:present ~place:[] ~paths:[] caps
  | Event.Switch_fail { switch } ->
    if switch < 0 || switch >= Topo.Net.num_switches n then
      Error "unknown switch"
    else if List.mem switch t.dead_switches then Error "switch already dead"
    else begin
      t.dead_switches <- switch :: t.dead_switches;
      Fault_plan.mark_dead t.fault switch;
      let caps' = Array.copy caps in
      caps'.(switch) <- 0;
      replace (broken ()) caps'
    end
  | Event.Link_fail { u; v } ->
    let key = link_key u v in
    if not (List.mem key (Topo.Net.edges n)) then Error "unknown link"
    else if List.mem key t.dead_links then Error "link already dead"
    else begin
      t.dead_links <- key :: t.dead_links;
      replace (broken ()) caps
    end
  | Event.Capacity_shrink { switch; capacity } ->
    if switch < 0 || switch >= Topo.Net.num_switches n then
      Error "unknown switch"
    else if capacity < 0 then Error "negative capacity"
    else if capacity >= caps.(switch) then Error "not a shrink"
    else begin
      let caps' = Array.copy caps in
      caps'.(switch) <- capacity;
      if (Solution.switch_usage t.good).(switch) <= capacity then
        goal t ~strip:[] ~place:[] ~paths:[] caps'
      else
        replace
          (List.filter
             (fun i ->
               List.exists
                 (fun (c : Solution.cell) -> List.mem_assoc i c.Solution.tags)
                 t.good.Solution.per_switch.(switch))
             (Instance.ingresses (inst t)))
          caps'
    end

(* ------------------------------------------------------------------ *)
(* The degradation ladder                                              *)

(* The good solution with [goal.strip] torn down and the post-event
   capacities: the base every rung builds on, and the fail-closed floor
   when every rung fails. *)
let stripped_base t goal =
  let keep = List.filter (has_policy t) goal.strip in
  let instance =
    Instance.edit ~drop:keep ~capacities:goal.capacities (inst t)
  in
  if keep = [] then { t.good with Solution.instance }
  else { (Solution.strip_ingresses t.good keep) with Solution.instance }

let full_instance t goal =
  Instance.edit ~drop:goal.strip ~policies:goal.sub_policies
    ~paths:goal.sub_paths ~capacities:goal.capacities (inst t)

let status_name = function
  | `Optimal -> "optimal"
  | `Feasible -> "feasible"
  | `Infeasible -> "infeasible"
  | `Unknown -> "unknown"

(* Walk the solve rungs of the ladder in order; [None] means every
   enabled rung failed and the caller must fail closed.  Each rung is
   exception-proof: the runtime degrades, it does not crash. *)
let solve_target t goal ~rungs ~t0 =
  if goal.sub_policies = [] then Some (Report.Noop, "-", stripped_base t goal)
  else begin
    let deadline = t0 +. t.config.deadline_s in
    let opts = t.config.solve_options in
    let enabled r = List.mem r rungs in
    let incremental () =
      if not (enabled Report.Incremental) then None
      else
        try
          let base = stripped_base t goal in
          let mid = Float.min deadline (t0 +. (0.5 *. t.config.deadline_s)) in
          let r =
            Incremental.install ~options:opts ~deadline:mid ~base
              ~policies:goal.sub_policies ~paths:goal.sub_paths ()
          in
          Option.map
            (fun sol -> (Report.Incremental, status_name r.Incremental.status, sol))
            r.Incremental.solution
        with _ -> None
    in
    let full () =
      if not (enabled Report.Full_resolve) then None
      else
        try
          let r = Solve.run ~options:opts ~deadline (full_instance t goal) in
          Option.map
            (fun sol -> (Report.Full_resolve, status_name r.Solve.status, sol))
            r.Solve.solution
        with _ -> None
    in
    let greedy () =
      if not (enabled Report.Greedy) then None
      else
        try
          let layout =
            Layout.build ~sliced:opts.Solve.slice (full_instance t goal)
          in
          match Baseline.greedy layout with
          | Baseline.Placed sol -> Some (Report.Greedy, "greedy", sol)
          | Baseline.Stuck _ -> None
        with _ -> None
    in
    match incremental () with
    | Some a -> Some a
    | None -> ( match full () with Some a -> Some a | None -> greedy ())
  end

(* ------------------------------------------------------------------ *)
(* Quarantine bookkeeping                                              *)

let zero_packet = Ternary.Packet.make ~src:0 ~dst:0 ~sport:0 ~dport:0 ~proto:0

(* Must be called before [t.good] is stripped: the probes come from the
   ingress's (old or incoming) policy. *)
let fenced_record t goal i =
  let paths =
    cur_paths t i
    @ List.filter
        (fun (p : Routing.Path.t) -> p.Routing.Path.ingress = i)
        goal.sub_paths
  in
  let policy =
    match Instance.policy_of (inst t) i with
    | Some q -> Some q
    | None -> List.assoc_opt i goal.sub_policies
  in
  let probes =
    zero_packet
    ::
    (match policy with
    | Some q -> witnesses 8 q
    | None -> [])
  in
  { q_ingress = i; q_paths = paths; q_probes = probes }

(* Fail closed: keep the last-good tables, strip every affected ingress
   from the good solution and fence it at its attachment switch.
   Returns the newly fenced ingresses. *)
let quarantine_now t goal =
  let affected =
    sort_uniq (goal.strip @ List.map fst goal.sub_policies @ goal.unroutable)
  in
  let fresh = List.filter (fun i -> not (in_quarantine t i)) affected in
  let recs = List.map (fenced_record t goal) fresh in
  (try t.good <- stripped_base t goal with _ -> ());
  t.quarantine <- t.quarantine @ recs;
  List.iter (force_fence t) recs;
  fresh

(* The declared tables of [sol], patched from those of the last verify
   ([memo]): only the switches whose cells changed since are ordered
   afresh. *)
let declared_tables memo sol =
  let b = Tables.patch ~cells:memo.m_cells ~tables:memo.m_declared sol in
  Telemetry.Metrics.add m_switches_rebuilt (List.length b.Tables.rebuilt);
  b

(* Target tables for a committed transition: a copy of the solution's
   declared tables plus a fence per quarantined ingress.  The declared
   build comes back too, so verification need not build it again; the
   verify memo keeps its tables, hence the copy.  Dead switches are
   unreachable through the install API, so their target is pinned to
   the live table (no live path traverses them); a fence that must land
   on a dead switch goes through the controller's forced-resync path
   instead. *)
let target_tables t sol quarantine =
  let n = net t in
  let declared = declared_tables t.memo sol in
  let target = Array.copy declared.Tables.tables in
  List.iter
    (fun q ->
      let k = Topo.Net.host_attach n q.q_ingress in
      target.(k) <- fence_entry q.q_ingress :: target.(k))
    quarantine;
  List.iter
    (fun k ->
      List.iter
        (fun q -> if Topo.Net.host_attach n q.q_ingress = k then force_fence t q)
        quarantine;
      target.(k) <- (Switch_api.tables t.api).(k))
    t.dead_switches;
  (declared, target)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

module IS = Set.Make (Int)

(* The tags' ingresses of the cells two solutions hold at [switches]. *)
let ingresses_at switches old_cells new_cells =
  let add acc (c : Solution.cell) =
    List.fold_left (fun acc (i, _) -> IS.add i acc) acc c.Solution.tags
  in
  List.fold_left
    (fun acc k ->
      List.fold_left add (List.fold_left add acc old_cells.(k)) new_cells.(k))
    IS.empty switches

(* Every check runs, so each one that fails is counted under its own
   label; an exception anywhere fails the event as "exception".
   [declared], when given, is the good solution's declared build, patched
   from the memo's ({!declared_tables}); it is patched here otherwise.

   Capacity and the fence are checked in full.  The structural,
   semantic and live checks redo only the policy ingresses whose inputs
   changed since the last verify: policy, routed paths or quarantine
   state, and for each check its own view of the placement: a cell on
   a switch whose cells changed (structural), or the tag's projection in
   the declared tables (semantic) or the live ones (live).  Every other
   ingress keeps its stored verdict, [false] included.  The first verify
   of an engine, every [full_verify_every]-th, and one after slicing
   flipped check them all. *)
let verify ?declared t =
  Telemetry.Trace.with_span "runtime.verify" @@ fun () ->
  let holds failed ok =
    if not ok then Telemetry.Metrics.incr failed;
    ok
  in
  let memo = t.memo in
  let full = t.verifies mod full_verify_every = 0 in
  t.verifies <- t.verifies + 1;
  try
    let sol = t.good in
    let inst = sol.Solution.instance in
    let g = Prng.split t.verify_prng in
    let declared =
      match declared with
      | Some b -> b
      | None -> declared_tables memo sol
    in
    let live_tables = Switch_api.snapshot t.api in
    (* What the last verify stored of an ingress whose policy, paths and
       quarantine state are unchanged, and the ingresses whose placement
       moved since then: tagged on a rebuilt switch's old or new cells,
       or with a changed projection in the declared or the live
       tables. *)
    let prior, placed_moved, declared_moved, live_moved =
      if (not full) && memo.m_sliced = sol.Solution.sliced then
        let moved old now = IS.of_list (fst (Update.changed_tags old now)) in
        ( (fun i q paths ->
            match Hashtbl.find_opt memo.m_seen i with
            | Some s
              when s.s_policy = q && s.s_paths = paths
                   && s.s_fenced = in_quarantine t i ->
              Some s
            | _ -> None),
          ingresses_at declared.Tables.rebuilt memo.m_cells
            sol.Solution.per_switch,
          moved memo.m_declared declared.Tables.tables,
          moved memo.m_live live_tables )
      else ((fun _ _ _ -> None), IS.empty, IS.empty, IS.empty)
    in
    let policies =
      List.map
        (fun (i, q) ->
          let paths = Routing.Table.paths_from inst.Instance.routing i in
          let prior = prior i q paths in
          let kept moved verdict =
            match prior with
            | Some s when not (IS.mem i moved) -> Some (verdict s)
            | _ -> None
          in
          ( i,
            q,
            paths,
            {
              k_structural = kept placed_moved (fun s -> s.s_structural);
              k_semantic = kept declared_moved (fun s -> s.s_semantic);
              k_live = kept live_moved (fun s -> s.s_live);
            } ))
        inst.Instance.policies
    in
    let rechecked pick =
      IS.of_list
        (List.filter_map
           (fun (i, _, _, k) -> if pick k = None then Some i else None)
           policies)
    in
    (* The declared placement: structural + semantic. *)
    let structure_checked = rechecked (fun k -> k.k_structural) in
    Telemetry.Metrics.add m_structural_checked (IS.cardinal structure_checked);
    let structural =
      Verify.structural_plain ~only:(fun i -> IS.mem i structure_checked) sol
    in
    let capacity_ok =
      List.for_all
        (function Verify.Capacity _ -> false | _ -> true)
        structural
    in
    let failed_structural =
      IS.of_list
        (List.filter_map
           (function
             | Verify.Coverage { ingress; _ }
             | Verify.Dependency { ingress; _ }
             | Verify.Monitor { ingress; _ } ->
               Some ingress
             | Verify.Capacity _ | Verify.Semantic _ -> None)
           structural)
    in
    let semantic_checked = rechecked (fun k -> k.k_semantic) in
    let failed_semantic =
      IS.of_list
        (List.filter_map
           (function Verify.Semantic { ingress; _ } -> Some ingress | _ -> None)
           (Verify.semantic ~random_samples:verify_samples
              ~only:(fun i -> IS.mem i semantic_checked)
              ~tables:declared.Tables.tables g sol))
    in
    (* The live data plane: walk witness packets of every policy along
       every path of its ingress and compare with the big-switch verdict,
       evaluated once per witness.  Only the tags walked below, the
       re-checked and the fenced ingresses, are viewed. *)
    let walked =
      IS.union
        (rechecked (fun k -> k.k_live))
        (IS.of_list (List.map (fun qr -> qr.q_ingress) t.quarantine))
    in
    let live =
      Netsim.tag_view ~only:(fun tag -> IS.mem tag walked) live_tables
    in
    let walk (p : Routing.Path.t) pkt =
      Netsim.forward_view live p ~tag:p.Routing.Path.ingress pkt
    in
    let live_check q paths =
      let probes =
        List.map (fun pkt -> (pkt, Acl.Policy.evaluate q pkt)) (witnesses 16 q)
      in
      List.for_all
        (fun (p : Routing.Path.t) ->
          List.for_all
            (fun (pkt, verdict) ->
              (not (Ternary.Field.matches p.Routing.Path.flow pkt))
              ||
              match (verdict, walk p pkt) with
              | Acl.Rule.Permit, Netsim.Delivered -> true
              | Acl.Rule.Drop, Netsim.Dropped _ -> true
              | _ -> false)
            probes)
        paths
    in
    (* A kept verdict counts as skipped; a missing one is checked now. *)
    let verdict skipped check = function
      | Some ok ->
        Telemetry.Metrics.incr skipped;
        ok
      | None -> check ()
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (i, q, paths, k) ->
        Hashtbl.replace seen i
          {
            s_policy = q;
            s_paths = paths;
            s_fenced = in_quarantine t i;
            s_structural =
              Option.value k.k_structural
                ~default:(not (IS.mem i failed_structural));
            s_semantic =
              verdict m_skipped_semantic
                (fun () -> not (IS.mem i failed_semantic))
                k.k_semantic;
            s_live =
              verdict m_skipped_live (fun () -> live_check q paths) k.k_live;
          })
      policies;
    let all pick = Hashtbl.fold (fun _ s ok -> ok && pick s) seen true in
    let structural_ok =
      holds m_verify_structural (capacity_ok && all (fun s -> s.s_structural))
    in
    let semantic_ok = holds m_verify_semantic (all (fun s -> s.s_semantic)) in
    let live_ok = holds m_verify_live (all (fun s -> s.s_live)) in
    (* Fail closed: everything a quarantined ingress sends must die. *)
    let fence_ok =
      holds m_verify_fence
        (List.for_all
           (fun qr ->
             List.for_all
               (fun p ->
                 List.for_all
                   (fun pkt ->
                     match walk p pkt with
                     | Netsim.Dropped _ -> true
                     | Netsim.Delivered -> false)
                   qr.q_probes)
               qr.q_paths)
           t.quarantine)
    in
    t.memo <-
      {
        m_sliced = sol.Solution.sliced;
        m_cells = Array.copy sol.Solution.per_switch;
        m_declared = declared.Tables.tables;
        m_live = live_tables;
        m_seen = seen;
      };
    structural_ok && semantic_ok && live_ok && fence_ok
  with _ -> holds m_verify_exception false

let declared t = t.memo.m_declared

(* ------------------------------------------------------------------ *)
(* Consistent-update corpus                                            *)

(* The probe corpus the wave barriers walk: for every ingress carrying a
   policy before or after the event, its routed paths under the old and
   new placements plus a deterministic packet sample (policy witnesses
   of both sides and a few randoms from a PRNG seeded by the verify seed
   and the ingress — never the mutable verify stream, so an event re-run
   after a crash rebuilds the identical corpus).  The sample is drawn
   only when a barrier finds a differing projection on one of the
   ingress's paths, so a sound update draws none. *)
let update_corpus t (sol : Solution.t) =
  let old_inst = inst t in
  let new_inst = sol.Solution.instance in
  let ingresses =
    sort_uniq
      (List.map fst old_inst.Instance.policies
      @ List.map fst new_inst.Instance.policies)
  in
  List.map
    (fun i ->
      let probes_of inst =
        match Instance.policy_of inst i with
        | Some q -> witnesses 8 q
        | None -> []
      in
      {
        Update.ingress = i;
        old_paths = Routing.Table.paths_from old_inst.Instance.routing i;
        new_paths = Routing.Table.paths_from new_inst.Instance.routing i;
        probes =
          lazy
            (let g = Prng.create ((verify_seed lxor 0x757044) + i) in
             (zero_packet :: probes_of old_inst)
             @ probes_of new_inst
             @ List.init 4 (fun _ -> Ternary.Packet.random g));
      })
    ingresses

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)

let handle ?on_op ?rungs t event =
  Telemetry.Trace.with_span "runtime.event" @@ fun () ->
  let rungs = Option.value rungs ~default:ladder_rungs in
  (match Telemetry.Trace.current () with
  | Some sp -> Telemetry.Trace.add_attr sp "event" (Event.describe event)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let s = Switch_api.stats t.api in
  let a0 = s.Switch_api.attempts
  and f0 = s.Switch_api.failures
  and o0 = s.Switch_api.timeouts
  and r0 = s.Switch_api.retries
  and x0 = s.Switch_api.forced_resyncs in
  let finish ~rung ~status ~applied ~newq ~verified ~waves =
    let s = Switch_api.stats t.api in
    let newly_quarantined = sort_uniq newq in
    let wall_s = Unix.gettimeofday () -. t0 in
    Telemetry.Metrics.incr (rung_counter rung);
    Telemetry.Metrics.observe m_event_s wall_s;
    Telemetry.Metrics.add m_quarantined (List.length newly_quarantined);
    (match Telemetry.Trace.current () with
    | Some sp -> Telemetry.Trace.add_attr sp "rung" (Report.rung_name rung)
    | None -> ());
    {
      Report.event = Event.describe event;
      rung;
      solve_status = status;
      applied;
      newly_quarantined;
      quarantined = quarantined t;
      verified;
      entries = live_entries t;
      attempts = s.Switch_api.attempts - a0;
      failures = s.Switch_api.failures - f0;
      timeouts = s.Switch_api.timeouts - o0;
      retries = s.Switch_api.retries - r0;
      forced_resyncs = s.Switch_api.forced_resyncs - x0;
      waves;
      wall_s;
    }
  in
  match Telemetry.Trace.with_span "runtime.plan" (fun () -> plan t event) with
  | Error reason ->
    finish ~rung:Report.Noop ~status:("rejected: " ^ reason)
      ~applied:Report.Kept_last_good ~newq:[] ~verified:(verify t) ~waves:0
  | Ok goal -> (
    match
      Telemetry.Trace.with_span "runtime.ladder" (fun () ->
          solve_target t goal ~rungs ~t0)
    with
    | None ->
      (* Every solve rung failed: fail closed. *)
      let newq = quarantine_now t goal in
      finish ~rung:Report.Quarantine ~status:"exhausted"
        ~applied:Report.Kept_last_good ~newq ~verified:(verify t) ~waves:0
    | Some (rung, status, sol) ->
      let placed = List.map fst goal.sub_policies in
      let keep_q =
        List.filter
          (fun q ->
            not
              (List.mem q.q_ingress placed || List.mem q.q_ingress goal.release))
          t.quarantine
      in
      let fresh =
        List.filter (fun i -> not (in_quarantine t i)) goal.unroutable
      in
      let q' = keep_q @ List.map (fenced_record t goal) fresh in
      (* An event whose only effect is fencing is a quarantine
         transition, whatever trivial rung "solved" it. *)
      let rung =
        if goal.sub_policies = [] && goal.unroutable <> [] then Report.Quarantine
        else rung
      in
      let declared, target = target_tables t sol q' in
      let commit_good () =
        t.good <- sol;
        t.quarantine <- q'
      in
      let newq_committed () =
        List.map
          (fun q -> q.q_ingress)
          (List.filter (fun q -> List.mem q.q_ingress fresh) q')
      in
      (* The direct plan, one add-before-delete wave: the fallback when
         the consistent schedule cannot be planned or aborts. *)
      let fallback () =
        match
          Telemetry.Trace.with_span "runtime.tx" (fun () ->
              Update.execute ?on_op ~api:t.api
                (Update.direct ~old_tables:(Switch_api.tables t.api) ~target))
        with
        | { Update.outcome = Update.Committed; _ } ->
          commit_good ();
          finish ~rung ~status ~applied:Report.Committed_fallback
            ~newq:(newq_committed ()) ~verified:(verify ~declared t) ~waves:0
        | { Update.outcome = Update.Aborted { switch; op }; _ } ->
          (* Tables are byte-identical to the pre-event state; fail closed
             on everything the event touched. *)
          Telemetry.Metrics.incr m_rollbacks;
          let newq = quarantine_now t goal in
          finish ~rung ~status
            ~applied:(Report.Rolled_back (Printf.sprintf "%s@%d" op switch))
            ~newq ~verified:(verify t) ~waves:0
      in
      (* Preferred rung of the write ladder: the per-packet-consistent
         wave schedule.  A planner failure or an aborted execution leaves
         the pre-event tables in place and degrades explicitly to the
         direct plan.  One [runtime.update] span covers the planning and
         the execution. *)
      let updated =
        Telemetry.Trace.with_span "runtime.update" @@ fun () ->
        match
          Update.build
            ~attach:(Topo.Net.host_attach (net t))
            ~corpus:(update_corpus t sol)
            ~old_tables:(Switch_api.tables t.api) ~target
        with
        | exception _ -> None
        | uplan ->
          Some (Update.execute ?on_op ~api:t.api uplan)
      in
      match updated with
      | None -> fallback ()
      | Some result -> (
        match result.Update.outcome with
        | Update.Committed ->
          commit_good ();
          finish ~rung ~status ~applied:Report.Committed
            ~newq:(newq_committed ()) ~verified:(verify ~declared t)
            ~waves:result.Update.waves_committed
        | Update.Aborted _ -> fallback ()))
