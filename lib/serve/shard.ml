type config = {
  capacity : int;
  snapshot_every : int;
  engine : Runtime.Engine.config;
}

let default_config =
  {
    capacity = 30;
    snapshot_every = 8;
    engine =
      { Runtime.Engine.default_config with Runtime.Engine.deadline_s = 5.0 };
  }

(* ------------------------------------------------------------------ *)
(* Per-tenant circuit breaker                                          *)

type breaker =
  | Closed of { strikes : int }
  | Open of { cooldown_left : int }
  | Half_open

let breaker_name = function
  | Closed _ -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let restriction = function
  | Open _ -> Some [ Runtime.Report.Greedy ]
  | Closed _ | Half_open -> None

(* Consecutive escalations that open a breaker, and clean restricted
   events before an open one half-opens. *)
let trip_after = 3
let cooldown = 4

let breaker_step b (report : Runtime.Report.t) =
  let escalated =
    (match report.Runtime.Report.rung with
    | Runtime.Report.Greedy | Runtime.Report.Quarantine -> true
    | Runtime.Report.Noop | Runtime.Report.Incremental
    | Runtime.Report.Full_resolve ->
      false)
    || not report.Runtime.Report.verified
  in
  match b with
  | Closed { strikes } ->
    if escalated then
      if strikes + 1 >= trip_after then
        Open { cooldown_left = cooldown }
      else Closed { strikes = strikes + 1 }
    else Closed { strikes = 0 }
  | Open { cooldown_left } ->
    (* Under restriction the greedy rung is the expected outcome, so only
       the floor (quarantine) or a failed verification resets the
       cooldown. *)
    if report.Runtime.Report.rung = Runtime.Report.Quarantine
       || not report.Runtime.Report.verified
    then Open { cooldown_left = cooldown }
    else if cooldown_left <= 1 then Half_open
    else Open { cooldown_left = cooldown_left - 1 }
  | Half_open ->
    if escalated then Open { cooldown_left = cooldown }
    else Closed { strikes = 0 }

(* ------------------------------------------------------------------ *)
(* Durable translation state (the journal's client blob)               *)

type tstate = { ts_active : bool; ts_ingress : int option; ts_breaker : breaker }

let fresh_ts = { ts_active = false; ts_ingress = None; ts_breaker = Closed { strikes = 0 } }

(* Everything the deterministic op->event translation depends on, beyond
   the engine itself.  Captured (post-draw, ticket marked done) into the
   Ev_begin client blob of every journaled event, so recovery restores
   the exact translation stream, and again by every {!snapshot}.
   [cs_last] names the tenant whose breaker step is still pending when
   this blob was written at Ev_begin — the report was not in hand yet;
   recovery patches that one step from the last replayed report. *)
type cstate = {
  cs_prng : Prng.t;
  mutable cs_done_below : int;  (** every ticket < this is processed *)
  mutable cs_done : int list;  (** processed tickets >= [cs_done_below] *)
  mutable cs_tenants : (int * tstate) list;  (** sorted by tenant *)
  mutable cs_killed : (int * int) list;  (** links cut by chaos ops *)
  mutable cs_last : int option;
}

let initial_cstate ~seed ~id =
  {
    cs_prng = Prng.create ((seed * 0x1003F) lxor ((id * 131) + 17));
    cs_done_below = 1;
    cs_done = [];
    cs_tenants = [];
    cs_killed = [];
    cs_last = None;
  }

let capture cs = Marshal.to_string cs []
let restore blob = (Marshal.from_string blob 0 : cstate)

let ts_find cs tenant =
  Option.value (List.assoc_opt tenant cs.cs_tenants) ~default:fresh_ts

let ts_set cs tenant ts =
  cs.cs_tenants <-
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      ((tenant, ts) :: List.remove_assoc tenant cs.cs_tenants)

let rec advance_watermark cs =
  if List.mem cs.cs_done_below cs.cs_done then begin
    cs.cs_done <- List.filter (fun x -> x <> cs.cs_done_below) cs.cs_done;
    cs.cs_done_below <- cs.cs_done_below + 1;
    advance_watermark cs
  end

let mark_done cs ticket =
  cs.cs_done <- List.sort compare (ticket :: cs.cs_done);
  advance_watermark cs

let is_done cs ticket = ticket < cs.cs_done_below || List.mem ticket cs.cs_done

(* ------------------------------------------------------------------ *)
(* The shard                                                           *)

type stores = { journal : Journal.Store.t; intake : Journal.Store.t }

type t = {
  config : config;
  stores : stores;
  intake_b : Journal.Store.Batched.t;  (* group-commit view of [stores.intake] *)
  jeng : Journal.Journaled.t;
  mutable cs : cstate;
  mutable next_ticket : int;
  mutable queue : (int * int * Wire.op) list;  (* (ticket, tenant, op), FIFO *)
  mutable since_snapshot : int;
}

(* One durable intake record: what was acked, exactly. *)
type intake = { it_ticket : int; it_tenant : int; it_op : Wire.op }

let encode_intake (it : intake) = Journal.Wal.pack it

(* Tickets are independent: a record that passes its CRC but does not
   decode is skipped, not a cut. *)
let decode_intakes bytes =
  let intakes = ref [] in
  ignore
    (Journal.Wal.walk ~cap:Journal.Wal.max_record_len bytes (fun pos len ->
         Option.iter
           (fun it -> intakes := it :: !intakes)
           (Journal.Wal.unpack bytes ~pos ~len : intake option);
         true));
  List.rev !intakes

let journal_config = { Journal.Journaled.snapshot_every = max_int }

let base_solution config =
  let net = Topo.Fattree.make 4 in
  Placement.Solution.empty
    (Placement.Instance.make ~net
       ~routing:(Routing.Table.of_paths [])
       ~policies:[]
       ~capacities:(Placement.Instance.uniform_capacity net config.capacity))

let snapshot t =
  (* Journal first: its snapshot carries the done-set that lets recovery
     discard the intake records compaction is about to duplicate or that
     a crash leaves behind.  The client blob is captured here, not after
     each event: tickets resolved without an event (rejected
     translations) and the last breaker step are in it too. *)
  Journal.Journaled.set_client t.jeng (capture t.cs);
  Journal.Journaled.snapshot_now t.jeng;
  let frames =
    String.concat ""
      (List.map
         (fun (ticket, tenant, op) ->
           encode_intake { it_ticket = ticket; it_tenant = tenant; it_op = op })
         t.queue)
  in
  (* Pending records move to the atomic snapshot slot before the log is
     truncated: a crash between the two reads them twice (deduped on
     recovery), never zero times.  The snap slot is durable on return,
     so any appends still staged under group commit are covered by it —
     their eventual acks no longer need a WAL barrier. *)
  t.stores.intake.Journal.Store.snap_write frames;
  t.stores.intake.Journal.Store.wal_reset ();
  Journal.Store.Batched.note_durable t.intake_b;
  t.since_snapshot <- 0

let create ?(config = default_config) ?kill ~stores ~seed ~id () =
  let jeng =
    Journal.Journaled.create ~config:config.engine ~journal:journal_config
      ?kill ~store:stores.journal (base_solution config)
  in
  let t =
    {
      config;
      stores;
      intake_b = Journal.Store.Batched.wrap stores.intake;
      jeng;
      cs = initial_cstate ~seed ~id;
      next_ticket = 1;
      queue = [];
      since_snapshot = 0;
    }
  in
  snapshot t;
  t

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let admit ?(sync = true) t ~tenant ~op =
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  Journal.Store.Batched.append t.intake_b
    (encode_intake { it_ticket = ticket; it_tenant = tenant; it_op = op });
  if sync then Journal.Store.Batched.flush t.intake_b;
  t.queue <- t.queue @ [ (ticket, tenant, op) ];
  ticket

let flush_intake t = Journal.Store.Batched.flush t.intake_b

let staged_intake t = Journal.Store.Batched.staged t.intake_b

type intake_stats = { appends : int; fsyncs : int }

let intake_stats t =
  {
    appends = Journal.Store.Batched.appends t.intake_b;
    fsyncs = Journal.Store.Batched.syncs t.intake_b;
  }

let pending t = List.length t.queue

let pending_for t ~tenant =
  List.length (List.filter (fun (_, tn, _) -> tn = tenant) t.queue)

let resolved t ~ticket = is_done t.cs ticket

(* ------------------------------------------------------------------ *)
(* Translation: Wire.op -> Runtime.Event, against the live network      *)

let eng t = Journal.Journaled.engine t.jeng

let translate t tenant op =
  let module C = Runtime.Churn in
  let e = eng t in
  let inst = (Runtime.Engine.good e).Placement.Solution.instance in
  let net = inst.Placement.Instance.net in
  let dead = Runtime.Engine.dead_switches e in
  let cs = t.cs in
  let g = cs.cs_prng in
  let ts = ts_find cs tenant in
  let connected () =
    match ts.ts_ingress with Some i when ts.ts_active -> Some i | _ -> None
  in
  match op with
  | Wire.Connect { rules } -> (
    if ts.ts_active then Error "already connected"
    else
      let taken =
        List.filter_map
          (fun (_, s) -> if s.ts_active then s.ts_ingress else None)
          cs.cs_tenants
        @ Runtime.Engine.quarantined e
      in
      match C.free_hosts net ~dead ~taken with
      | [] -> Error "no free ingress"
      | free -> (
        let i = Prng.choose_list g free in
        match C.fresh_paths g net ~dead i with
        | [] -> Error "no route"
        | paths ->
          ts_set cs tenant { ts with ts_active = true; ts_ingress = Some i };
          let policy = C.fresh_policy g net ~dead i paths ~rules:(max 1 rules) in
          Ok (Runtime.Event.Install { ingress = i; policy; paths })))
  | Wire.Flow -> (
    match connected () with
    | None -> Error "not connected"
    | Some i -> (
      match C.fresh_paths g net ~dead i with
      | [] -> Error "no route"
      | paths -> Ok (Runtime.Event.Reroute { ingresses = [ i ]; paths })))
  | Wire.Update { rules } -> (
    match connected () with
    | None -> Error "not connected"
    | Some i ->
      let paths = Routing.Table.paths_from inst.Placement.Instance.routing i in
      let policy = C.fresh_policy g net ~dead i paths ~rules:(max 1 rules) in
      Ok (Runtime.Event.Update_policy { ingress = i; policy }))
  | Wire.Disconnect -> (
    match connected () with
    | None -> Error "not connected"
    | Some i ->
      ts_set cs tenant { ts with ts_active = false; ts_ingress = None };
      Ok (Runtime.Event.Remove { ingresses = [ i ] }))
  | Wire.Chaos Wire.Kill_switch -> (
    match C.switch_victims net ~dead with
    | [] -> Error "too many dead switches"
    | pool -> Ok (Runtime.Event.Switch_fail { switch = Prng.choose_list g pool }))
  | Wire.Chaos Wire.Cut_link -> (
    match C.link_victims net ~dead ~killed:cs.cs_killed with
    | [] -> Error "too many cut links"
    | pool ->
      let u, v = Prng.choose_list g pool in
      cs.cs_killed <- (u, v) :: cs.cs_killed;
      Ok (Runtime.Event.Link_fail { u; v }))
  | Wire.Chaos Wire.Shrink_capacity -> (
    let caps = inst.Placement.Instance.capacities in
    match C.shrink_pool net ~dead caps with
    | [] -> Error "no capacity left to shrink"
    | pool ->
      let k = Prng.choose_list g pool in
      Ok (Runtime.Event.Capacity_shrink { switch = k; capacity = caps.(k) / 2 }))

(* ------------------------------------------------------------------ *)
(* Processing                                                          *)

type outcome =
  | Applied of { rung : Runtime.Report.rung; verified : bool; quarantined : bool }
  | Quarantined of { reason : string }

type processed = { p_tenant : int; p_ticket : int; p_outcome : outcome }

let process_one t (ticket, tenant, op) =
  match translate t tenant op with
  | Error reason ->
    (* A deterministic resolution, not an event: nothing reaches the
       engine or the journal.  The done-marking becomes durable with the
       next journaled event or snapshot; until then a crash simply
       re-translates this ticket to the same rejection. *)
    mark_done t.cs ticket;
    { p_tenant = tenant; p_ticket = ticket; p_outcome = Quarantined { reason } }
  | Ok event ->
    mark_done t.cs ticket;
    let b = (ts_find t.cs tenant).ts_breaker in
    let rungs = restriction b in
    t.cs.cs_last <- Some tenant;
    let blob = capture t.cs in
    let report = Journal.Journaled.handle ~client:blob ?rungs t.jeng event in
    let ts = ts_find t.cs tenant in
    ts_set t.cs tenant { ts with ts_breaker = breaker_step b report };
    t.cs.cs_last <- None;
    t.since_snapshot <- t.since_snapshot + 1;
    if t.since_snapshot >= t.config.snapshot_every then snapshot t;
    let quarantined =
      match ts.ts_ingress with
      | Some i -> List.mem i report.Runtime.Report.quarantined
      | None -> false
    in
    {
      p_tenant = tenant;
      p_ticket = ticket;
      p_outcome =
        Applied
          {
            rung = report.Runtime.Report.rung;
            verified = report.Runtime.Report.verified;
            quarantined;
          };
    }

type batch = (int * int * Wire.op) list

(* Selection is split from execution so the daemon can plan every
   shard's round sequentially and then execute the per-shard batches on
   a domain pool: by the time a batch runs, it touches nothing but its
   own shard. *)
(* Selection does NOT dequeue: a planned ticket stays in [t.queue] until
   the moment {!execute_batch} reaches it.  That keeps the compaction
   invariant — every admitted-unprocessed ticket is in [t.queue] or in
   the done-set at any {!snapshot} point — even when an event early in a
   batch triggers a mid-batch snapshot.  (Dequeuing the whole batch at
   plan time once made such a snapshot's intake compaction destroy the
   only durable record of the batch's still-unprocessed tail: a
   subsequently quarantined — never journaled — ticket then vanished
   entirely across a crash and its number was re-issued to a new
   admission.) *)
(* Both counters only grow, so a refused tenant stays refused for the
   rest of the round: its own tickets keep FIFO order while later
   tenants overtake it. *)
let plan_round t ~slots ~tenant_cap =
  let taken = ref 0 in
  let by_tenant = Hashtbl.create 8 in
  List.filter
    (fun (_, tenant, _) ->
      let mine = Option.value (Hashtbl.find_opt by_tenant tenant) ~default:0 in
      if !taken < slots && mine < tenant_cap then begin
        incr taken;
        Hashtbl.replace by_tenant tenant (mine + 1);
        true
      end
      else false)
    t.queue

let execute_batch t batch =
  List.map
    (fun ((ticket, _, _) as e) ->
      t.queue <- List.filter (fun (tk, _, _) -> tk <> ticket) t.queue;
      process_one t e)
    batch

let drain t =
  let out = execute_batch t t.queue in
  snapshot t;
  out

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type recovered = {
  shard : t;
  replayed : int;
  reissued : int;
  divergences : string list;
}

let recover ?(config = default_config) ?kill ~stores ~seed ~id () =
  match
    Journal.Journaled.recover ~config:config.engine ~journal:journal_config
      ?kill ~resnap:false ~store:stores.journal ()
  with
  | Error _ as e -> e
  | Ok r ->
    let jeng = r.Journal.Journaled.journaled in
    let cs =
      match Journal.Journaled.client jeng with
      | Some blob -> restore blob
      | None -> initial_cstate ~seed ~id
    in
    (* The blob logged at the last Ev_begin predates that event's report;
       its breaker step is the one transition recovery owes.  The report
       is the last one the journal just replayed. *)
    (match (cs.cs_last, List.rev r.Journal.Journaled.replayed) with
    | Some tenant, (_, report) :: _ ->
      let ts = ts_find cs tenant in
      ts_set cs tenant
        { ts with ts_breaker = breaker_step ts.ts_breaker report }
    | _ -> ());
    cs.cs_last <- None;
    let snap_bytes =
      Option.value (stores.intake.Journal.Store.snap_read ()) ~default:""
    in
    let wal_bytes = stores.intake.Journal.Store.wal_read () in
    let all = decode_intakes snap_bytes @ decode_intakes wal_bytes in
    let seen = Hashtbl.create 16 in
    let entries =
      List.filter
        (fun it ->
          if Hashtbl.mem seen it.it_ticket then false
          else begin
            Hashtbl.replace seen it.it_ticket ();
            true
          end)
        all
    in
    let pending_entries =
      List.sort
        (fun a b -> compare a.it_ticket b.it_ticket)
        (List.filter (fun it -> not (is_done cs it.it_ticket)) entries)
    in
    let max_seen =
      List.fold_left
        (fun acc it -> max acc it.it_ticket)
        (List.fold_left max (cs.cs_done_below - 1) cs.cs_done)
        entries
    in
    let t =
      {
        config;
        stores;
        intake_b = Journal.Store.Batched.wrap stores.intake;
        jeng;
        cs;
        next_ticket = max_seen + 1;
        queue =
          List.map
            (fun it -> (it.it_ticket, it.it_tenant, it.it_op))
            pending_entries;
        since_snapshot = 0;
      }
    in
    snapshot t;
    Ok
      {
        shard = t;
        replayed = List.length r.Journal.Journaled.replayed;
        reissued = List.length pending_entries;
        divergences = r.Journal.Journaled.divergences;
      }

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Traffic tick: walk one drifting-Zipf epoch over the live tables.
   Stateless — a pure function of the parameters and the last-good
   placement — so a restarted shard answers byte-identically. *)

let traffic_walk t ~seed ~epoch ~packets ~alpha ~drift ~probes =
  let e = eng t in
  let inst = (Runtime.Engine.good e).Placement.Solution.instance in
  let paths =
    Array.of_list (Routing.Table.paths inst.Placement.Instance.routing)
  in
  let flows = Array.length paths in
  if flows = 0 || packets <= 0 then (flows, 0, 0)
  else begin
    let zcfg =
      {
        Traffic.Zipf.flows;
        packets;
        alpha = Float.max 0.0 alpha;
        drift = Float.max 0.0 drift;
        seed;
      }
    in
    let tables = Runtime.Engine.table_snapshot e in
    let delivered = ref 0 and dropped = ref 0 in
    Traffic.Zipf.walk ~seed ~probes:(max 1 probes)
      (Traffic.Zipf.epoch zcfg (max 0 epoch))
      ~field:(Traffic.Controller.probe_field paths tables)
      (fun f pkt w ->
        let path = paths.(f) in
        match
          Netsim.forward_tables tables path ~tag:path.Routing.Path.ingress pkt
        with
        | Netsim.Delivered -> delivered := !delivered + w
        | Netsim.Dropped _ -> dropped := !dropped + w);
    (flows, !delivered, !dropped)
  end

let cs_view cs =
  ( cs.cs_done_below,
    cs.cs_done,
    List.map
      (fun (tn, ts) -> (tn, ts.ts_active, ts.ts_ingress, breaker_name ts.ts_breaker))
      cs.cs_tenants,
    List.sort compare cs.cs_killed )

let signature t =
  let e = eng t in
  digest
    ( Runtime.Engine.table_snapshot e,
      Runtime.Engine.quarantined e,
      Runtime.Engine.dead_switches e,
      Runtime.Engine.live_entries e,
      Journal.Journaled.seq t.jeng,
      cs_view t.cs,
      List.map (fun (tk, tn, _) -> (tk, tn)) t.queue )

let tenant_signature t ~tenant =
  let e = eng t in
  let inst = (Runtime.Engine.good e).Placement.Solution.instance in
  let ts = ts_find t.cs tenant in
  let policy, paths, fenced =
    match ts.ts_ingress with
    | Some i ->
      ( List.assoc_opt i inst.Placement.Instance.policies,
        Routing.Table.paths_from inst.Placement.Instance.routing i,
        List.mem i (Runtime.Engine.quarantined e) )
    | None -> (None, [], false)
  in
  digest
    (ts.ts_active, ts.ts_ingress, breaker_name ts.ts_breaker, policy, paths, fenced)

let tenants t = List.map fst t.cs.cs_tenants

let seq t = Journal.Journaled.seq t.jeng
