type config = {
  shards : int;
  queue_limit : int;
  tenant_queue_limit : int;
  round_slots : int;
  tenant_round_cap : int;
  jobs : int;
  batch_fsync : int;
  shard : Shard.config;
  seed : int;
}

let default_config =
  {
    shards = 4;
    queue_limit = 64;
    tenant_queue_limit = 8;
    round_slots = 8;
    tenant_round_cap = 2;
    jobs = 1;
    batch_fsync = 1;
    shard = Shard.default_config;
    seed = 1;
  }

let m_accepted =
  Telemetry.Metrics.counter ~help:"events admitted (durably acked)"
    "sdnplace_serve_accepted_total"

let m_applied =
  Telemetry.Metrics.counter ~help:"acked events applied to the network"
    "sdnplace_serve_applied_total"

let m_quarantined =
  Telemetry.Metrics.counter ~help:"acked events resolved as quarantined tickets"
    "sdnplace_serve_quarantined_tickets_total"

let m_intake_fsyncs =
  Telemetry.Metrics.counter
    ~help:"intake-log durability barriers issued (group commit batches)"
    "sdnplace_serve_intake_fsyncs_total"

let m_shed name =
  Telemetry.Metrics.counter ~help:"overload rejections by scope"
    ~labels:[ ("scope", name) ]
    "sdnplace_serve_shed_total"

let () = List.iter (fun s -> ignore (m_shed s)) [ "global"; "tenant" ]

(* Per-tenant traffic attribution: an unbounded label space by nature,
   which is exactly what the registry's label cap exists for — tenants
   past the cap aggregate into the _overflow series instead of growing
   the registry without bound. *)
let tenant_series_cap = 32

let m_tenant_events tenant =
  Telemetry.Metrics.counter ~help:"admitted events by tenant"
    ~labels:[ ("tenant", string_of_int tenant) ]
    "sdnplace_serve_tenant_events_total"

type t = {
  config : config;
  shards : Shard.t array;
  exec : Exec.t;
  mutable draining : bool;
  (* Domain-safe counters: the merge step runs on the calling domain,
     but shard batches execute on pool domains, and nothing in the type
     system stops a future caller from reading stats concurrently with a
     round — Atomic.t makes every individual read untearable and every
     increment lock-free.  Stats_reply assembly reads each cell once;
     the reply is a consistent-enough snapshot because all four cells
     are only incremented between rounds on the calling domain. *)
  accepted : int Atomic.t;
  applied : int Atomic.t;
  quarantined : int Atomic.t;
  shed_count : int Atomic.t;
  (* Group commit: acks staged since the last covering fsync, admission
     order.  Each entry remembers which shard's intake log carries its
     record, so [flush] can fsync exactly the dirty shards. *)
  mutable staged_acks : Wire.reply list;  (* reversed *)
  mutable staged_count : int;
}

let build config shards =
  {
    config;
    shards;
    exec = Exec.create ~jobs:config.jobs;
    draining = false;
    accepted = Atomic.make 0;
    applied = Atomic.make 0;
    quarantined = Atomic.make 0;
    shed_count = Atomic.make 0;
    staged_acks = [];
    staged_count = 0;
  }

(* Checked before any shard touches its stores. *)
let validate (config : config) =
  if config.shards < 1 then invalid_arg "Serve.Daemon: shards must be >= 1";
  if config.jobs < 1 then invalid_arg "Serve.Daemon: jobs must be >= 1"

let create ?(config = default_config) ?kill ~stores () =
  validate config;
  Telemetry.Metrics.set_label_cap (Some tenant_series_cap);
  let shards =
    Array.init config.shards (fun i ->
        Shard.create ~config:config.shard
          ?kill:(Option.map (fun k -> k ~shard:i) kill)
          ~stores:(stores i) ~seed:config.seed ~id:i ())
  in
  build config shards

type started = {
  daemon : t;
  recovered_shards : int;
  replayed : int;
  reissued : int;
  divergences : string list;
}

let start ?(config = default_config) ?kill ~stores () =
  validate config;
  Telemetry.Metrics.set_label_cap (Some tenant_series_cap);
  let recovered_shards = ref 0 in
  let replayed = ref 0 in
  let reissued = ref 0 in
  let divergences = ref [] in
  let shards =
    Array.init config.shards (fun i ->
        let st = stores i in
        let kill = Option.map (fun k -> k ~shard:i) kill in
        match
          Shard.recover ~config:config.shard ?kill ~stores:st ~seed:config.seed
            ~id:i ()
        with
        | Ok r ->
          incr recovered_shards;
          replayed := !replayed + r.Shard.replayed;
          reissued := !reissued + r.Shard.reissued;
          divergences := !divergences @ r.Shard.divergences;
          r.Shard.shard
        | Error _ ->
          Shard.create ~config:config.shard ?kill ~stores:st ~seed:config.seed
            ~id:i ())
  in
  {
    daemon = build config shards;
    recovered_shards = !recovered_shards;
    replayed = !replayed;
    reissued = !reissued;
    divergences = !divergences;
  }

let shutdown t = if not (Exec.stopped t.exec) then Exec.stop t.exec

let shard_of t tenant = t.shards.(tenant mod Array.length t.shards)

let pending t = Array.fold_left (fun acc s -> acc + Shard.pending s) 0 t.shards

let resolved t ~tenant ~ticket = Shard.resolved (shard_of t tenant) ~ticket

let shed t = Atomic.get t.shed_count

let draining t = t.draining

let known_tenants t =
  List.sort_uniq compare
    (Array.to_list t.shards |> List.concat_map Shard.tenants)

let stats_reply t =
  Wire.Stats_reply
    {
      tenants = List.length (known_tenants t);
      accepted = Atomic.get t.accepted;
      applied = Atomic.get t.applied;
      quarantined = Atomic.get t.quarantined;
      shed = Atomic.get t.shed_count;
      pending = pending t;
    }

type intake_stats = { appends : int; fsyncs : int }

let intake_stats t =
  Array.fold_left
    (fun acc s ->
      let st = Shard.intake_stats s in
      {
        appends = acc.appends + st.Shard.appends;
        fsyncs = acc.fsyncs + st.Shard.fsyncs;
      })
    { appends = 0; fsyncs = 0 }
    t.shards

let reply_of_processed (p : Shard.processed) =
  match p.Shard.p_outcome with
  | Shard.Applied { rung; verified; quarantined } ->
    Wire.Applied
      { tenant = p.Shard.p_tenant; ticket = p.Shard.p_ticket; rung; verified;
        quarantined }
  | Shard.Quarantined { reason } ->
    Wire.Quarantined_ticket
      { tenant = p.Shard.p_tenant; ticket = p.Shard.p_ticket; reason }

let account t (p : Shard.processed) =
  (match p.Shard.p_outcome with
  | Shard.Applied _ ->
    Atomic.incr t.applied;
    Telemetry.Metrics.incr m_applied
  | Shard.Quarantined _ ->
    Atomic.incr t.quarantined;
    Telemetry.Metrics.incr m_quarantined);
  reply_of_processed p

(* Group commit: one durability barrier per dirty shard covers every ack
   staged since the last flush; only then are the Accepted replies
   released, in admission order.  (Shards whose staged records were
   already made durable by an intake compaction skip the fsync — see
   Shard.flush_intake.) *)
let flush t =
  if t.staged_count = 0 then []
  else begin
    let dirty =
      Array.to_list t.shards |> List.filter (fun s -> Shard.staged_intake s > 0)
    in
    (* The per-shard barriers are independent fsyncs on distinct
       stores: run them through the executor so their commit waits
       overlap exactly like batch execution (plain loop at jobs = 1).
       Order is irrelevant — each barrier touches only its own shard —
       so this changes nothing observable. *)
    ignore
      (Exec.run t.exec
         (Array.of_list (List.map (fun s () -> Shard.flush_intake s) dirty)));
    List.iter (fun _ -> Telemetry.Metrics.incr m_intake_fsyncs) dirty;
    let acks = List.rev t.staged_acks in
    t.staged_acks <- [];
    t.staged_count <- 0;
    acks
  end

(* One scheduling round: plan every shard sequentially (shards share
   nothing, so selection is identical at any [jobs]), execute the dirty
   shards' batches on the domain pool, merge in shard order.  The merge
   — accounting included — happens on the calling domain, so the reply
   stream is byte-identical at any [jobs].  A batch that dies mid-way
   (the bench's simulated kill) still lets every other batch complete
   before the first failure in shard order surfaces, at any [jobs] (see
   Exec). *)
let run_round t ~slots ~tenant_cap =
  let batches =
    Array.to_list t.shards
    |> List.filter_map (fun s ->
           match Shard.plan_round s ~slots ~tenant_cap with
           | [] -> None
           | batch -> Some (fun () -> Shard.execute_batch s batch))
  in
  Exec.run t.exec (Array.of_list batches)
  |> Array.to_list |> List.concat |> List.map (account t)

let tick t =
  (* Nothing may be processed before its ack's covering barrier: an
     event the journal absorbs but the intake never recorded would make
     the journaled state depend on an admission the client cannot know
     happened. *)
  let acks = flush t in
  acks
  @ run_round t ~slots:(max 1 t.config.round_slots)
      ~tenant_cap:(max 1 t.config.tenant_round_cap)

let drain t =
  t.draining <- true;
  let acks = flush t in
  let outcomes = run_round t ~slots:max_int ~tenant_cap:max_int in
  Array.iter Shard.snapshot t.shards;
  acks @ outcomes
  @ [ Wire.Drained { processed = Atomic.get t.applied + Atomic.get t.quarantined } ]

let submit t request =
  match request with
  | Wire.Drain -> drain t
  | Wire.Stats -> [ stats_reply t ]
  | Wire.Metrics_dump ->
    [ Wire.Metrics_text { text = Telemetry.Metrics.render () } ]
  | Wire.Traffic_tick { seed; epoch; packets; alpha; drift; probes } ->
    (* each shard walks its own flow universe on a shard-mixed seed;
       the reply aggregates — read-only, so allowed even while draining *)
    let flows = ref 0 and delivered = ref 0 and dropped = ref 0 in
    Array.iteri
      (fun i s ->
        let f, d, x =
          Shard.traffic_walk s ~seed:(seed lxor ((i * 131) + 17)) ~epoch
            ~packets ~alpha ~drift ~probes
        in
        flows := !flows + f;
        delivered := !delivered + d;
        dropped := !dropped + x)
      t.shards;
    [
      Wire.Traffic_report
        {
          epoch;
          flows = !flows;
          delivered = !delivered;
          dropped = !dropped;
        };
    ]
  | Wire.Submit { tenant; op } ->
    if t.draining then [ Wire.Rejected { reason = "draining" } ]
    else if tenant < 0 then [ Wire.Rejected { reason = "negative tenant id" } ]
    else begin
      let queued = pending t in
      let s = shard_of t tenant in
      let tenant_queued = Shard.pending_for s ~tenant in
      if queued >= t.config.queue_limit then begin
        Atomic.incr t.shed_count;
        Telemetry.Metrics.incr (m_shed "global");
        [
          Wire.Rejected_overload
            { tenant; scope = Wire.Global; queued; limit = t.config.queue_limit };
        ]
      end
      else if tenant_queued >= t.config.tenant_queue_limit then begin
        Atomic.incr t.shed_count;
        Telemetry.Metrics.incr (m_shed "tenant");
        [
          Wire.Rejected_overload
            {
              tenant;
              scope = Wire.Tenant;
              queued = tenant_queued;
              limit = t.config.tenant_queue_limit;
            };
        ]
      end
      else begin
        let sync = t.config.batch_fsync <= 1 in
        let ticket = Shard.admit ~sync s ~tenant ~op in
        Atomic.incr t.accepted;
        Telemetry.Metrics.incr m_accepted;
        Telemetry.Metrics.incr (m_tenant_events tenant);
        let ack = Wire.Accepted { tenant; ticket } in
        if sync then [ ack ]
        else begin
          t.staged_acks <- ack :: t.staged_acks;
          t.staged_count <- t.staged_count + 1;
          (* Bounded batch: the covering fsync is issued at the batch
             cap even if the caller never flushes explicitly. *)
          if t.staged_count >= t.config.batch_fsync then flush t else []
        end
      end
    end

let signature t =
  Digest.to_hex
    (Digest.string
       (String.concat "|" (Array.to_list (Array.map Shard.signature t.shards))))

let tenant_signatures t =
  List.map
    (fun tenant ->
      (tenant, Shard.tenant_signature (shard_of t tenant) ~tenant))
    (known_tenants t)

type session = { drained : bool; requests : int }

let serve_channels t ic oc =
  let write reply =
    output_string oc (Wire.encode_reply reply);
    Stdlib.flush oc
  in
  let requests = ref 0 in
  let rec loop () =
    match Wire.read_message ic with
    | None ->
      (* EOF or a torn frame: the stream is gone, but every acked event
         must still land — same graceful drain as an explicit Drain,
         with nobody left to read the replies. *)
      if not t.draining then ignore (drain t);
      { drained = false; requests = !requests }
    | Some payload -> (
      incr requests;
      match Wire.request_of_payload payload with
      | None ->
        write (Wire.Rejected { reason = "malformed request" });
        loop ()
      | Some Wire.Drain ->
        List.iter write (drain t);
        { drained = true; requests = !requests }
      | Some req ->
        (* A synchronous session acks every request before the next one
           arrives, so a staged ack is flushed right away — group commit
           degenerates to a batch of one here; the batching win needs
           the multi-session loop (or an in-process caller driving
           submit/flush/tick directly). *)
        List.iter write (submit t req);
        List.iter write (flush t);
        (* One fair round after every request keeps outcome latency
           bounded by the request rate and the whole session
           deterministic. *)
        List.iter write (tick t);
        loop ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Multi-session accept loop                                           *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable alive : bool;
}

type served = { sessions : int; total_requests : int; drain_requested : bool }

let write_fd_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let serve_sessions t ~listen ?(max_sessions = 4) () =
  if max_sessions < 1 then
    invalid_arg "Serve.Daemon.serve_sessions: max_sessions must be >= 1";
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let next_id = ref 0 in
  let served = ref 0 in
  let total_requests = ref 0 in
  let drain_requested = ref false in
  let finished = ref false in
  (* Replies that name a tenant route to the session that last submitted
     for that tenant — outcomes can surface rounds after the submit, on
     a later poll cycle.  Tenant-less replies answer the requesting
     session; Drained broadcasts. *)
  let tenant_session : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let send sid reply =
    match Hashtbl.find_opt conns sid with
    | Some c when c.alive -> (
      try write_fd_all c.fd (Wire.encode_reply reply)
      with Unix.Unix_error _ -> c.alive <- false)
    | _ -> ()
  in
  let broadcast reply =
    Hashtbl.iter (fun sid _ -> send sid reply) conns
  in
  let route ~from reply =
    match reply with
    | Wire.Accepted { tenant; _ }
    | Wire.Rejected_overload { tenant; _ }
    | Wire.Applied { tenant; _ }
    | Wire.Quarantined_ticket { tenant; _ } -> (
      match Hashtbl.find_opt tenant_session tenant with
      | Some sid -> send sid reply
      | None -> send from reply)
    | Wire.Drained _ -> broadcast reply
    | Wire.Rejected _ | Wire.Stats_reply _ | Wire.Metrics_text _
    | Wire.Traffic_report _ ->
      send from reply
  in
  let close sid =
    match Hashtbl.find_opt conns sid with
    | None -> ()
    | Some c ->
      c.alive <- false;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Hashtbl.remove conns sid
  in
  let handle_request sid req =
    incr total_requests;
    match req with
    | Wire.Drain -> drain_requested := true
    | Wire.Submit { tenant; _ } when tenant >= 0 ->
      Hashtbl.replace tenant_session tenant sid;
      List.iter (route ~from:sid) (submit t req)
    | req -> List.iter (route ~from:sid) (submit t req)
  in
  let read_session sid =
    match Hashtbl.find_opt conns sid with
    | None -> ()
    | Some c -> (
      let chunk = Bytes.create 65536 in
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> close sid
      | 0 -> close sid
      | n -> (
        Buffer.add_subbytes c.inbuf chunk 0 n;
        match Wire.take_frames c.inbuf with
        | Wire.Frames payloads ->
          List.iter
            (fun p ->
              match Wire.request_of_payload p with
              | None -> send sid (Wire.Rejected { reason = "malformed request" })
              | Some req -> handle_request sid req)
            payloads
        | Wire.Torn ->
          (* A corrupt frame poisons the whole stream — same contract as
             the synchronous session: the connection is dropped; its
             acked events still land via the shared drain-on-exit. *)
          close sid))
  in
  while not !finished do
    let accepting = Hashtbl.length conns < max_sessions && not !drain_requested in
    let watch =
      (if accepting then [ listen ] else [])
      @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
    in
    let timeout = if pending t > 0 then 0.0 else -1.0 in
    let readable, _, _ =
      try Unix.select watch [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if accepting && List.mem listen readable then begin
      match Unix.accept listen with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        let sid = !next_id in
        incr next_id;
        incr served;
        Hashtbl.replace conns sid { fd; inbuf = Buffer.create 4096; alive = true }
    end;
    (* Poll cycle: pull everything that arrived, then pay one covering
       fsync per dirty shard for the whole batch (group commit), release
       the acks, and run one fair scheduling round. *)
    let sids = List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) conns []) in
    List.iter
      (fun sid ->
        match Hashtbl.find_opt conns sid with
        | Some c when List.mem c.fd readable -> read_session sid
        | _ -> ())
      sids;
    List.iter (route ~from:0) (flush t);
    if !drain_requested then begin
      List.iter (route ~from:0) (drain t);
      List.iter close (List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) conns []));
      finished := true
    end
    else begin
      if pending t > 0 then List.iter (route ~from:0) (tick t);
      if Hashtbl.length conns = 0 && !served > 0 then begin
        (* Last client gone: same graceful drain as a torn single
           session — every acked event processed, every shard
           snapshotted, with nobody left to read the outcomes. *)
        if not t.draining then ignore (drain t);
        finished := true
      end
    end
  done;
  {
    sessions = !served;
    total_requests = !total_requests;
    drain_requested = !drain_requested;
  }
