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
     order.  [flush] finds the dirty shards from their own intake
     views ({!Shard.staged_intake}), not from these replies. *)
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

type start_error = { shard : int; reason : string }

let start ?(config = default_config) ?kill ~stores () =
  validate config;
  Telemetry.Metrics.set_label_cap (Some tenant_series_cap);
  let stores = Array.init config.shards stores in
  (* Every snapshot is read before any shard writes: only a store with
     no snapshot is fresh, and a corrupt or unknown-version one refuses
     the start with every store left as it was. *)
  let snapshots =
    Array.map (fun st -> Journal.Journaled.has_snapshot st.Shard.journal) stores
  in
  match
    Array.find_mapi
      (fun shard -> function
        | Error reason -> Some { shard; reason } | Ok _ -> None)
      snapshots
  with
  | Some e -> Error e
  | None ->
    let recovered_shards = ref 0 in
    let replayed = ref 0 in
    let reissued = ref 0 in
    let divergences = ref [] in
    let boot i st =
      let kill = Option.map (fun k -> k ~shard:i) kill in
      if snapshots.(i) = Ok false then
        Shard.create ~config:config.shard ?kill ~stores:st ~seed:config.seed
          ~id:i ()
      else
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
        | Error reason ->
          (* the snapshot read above changed under the start *)
          failwith (Printf.sprintf "Serve.Daemon.start: shard %d: %s" i reason)
    in
    let shards = Array.mapi boot stores in
    Ok
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

(* ------------------------------------------------------------------ *)
(* The session loop: stdio and socket sessions alike                   *)

type conn = {
  input : Unix.file_descr;
  output : Unix.file_descr;
  owned : bool;  (* accepted by the loop, so closed by it *)
  inbuf : Buffer.t;
  mutable alive : bool;
}

type served = { sessions : int; total_requests : int; drain_requested : bool }

let write_fd_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let serve_sessions t ?listen ?session ?(max_sessions = 4) () =
  if max_sessions < 1 then
    invalid_arg "Serve.Daemon.serve_sessions: max_sessions must be >= 1";
  (* A reply to a session that hung up must fail with EPIPE, which the
     loop absorbs, not raise SIGPIPE, which kills the process before
     its drain. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
  @@ fun () ->
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let served = ref 0 in
  let total_requests = ref 0 in
  let drain_requested = ref false in
  let finished = ref false in
  let open_session ~owned input output =
    Hashtbl.replace conns !served
      { input; output; owned; inbuf = Buffer.create 4096; alive = true };
    incr served
  in
  Option.iter (fun (input, output) -> open_session ~owned:false input output) session;
  (* Replies that name a tenant route to the session that last submitted
     for that tenant — outcomes can surface rounds after the submit, on
     a later poll cycle.  Tenant-less replies answer the requesting
     session; Drained broadcasts. *)
  let tenant_session : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let send sid reply =
    match Hashtbl.find_opt conns sid with
    | Some c when c.alive -> (
      try write_fd_all c.output (Wire.encode_reply reply)
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
      (if c.owned then try Unix.close c.input with Unix.Unix_error _ -> ());
      Hashtbl.remove conns sid
  in
  let handle_request sid = function
    | None -> send sid (Wire.Rejected { reason = "malformed request" })
    | Some Wire.Drain ->
      (* admission stops now; the drain itself runs after this cycle's
         flush *)
      drain_requested := true;
      t.draining <- true
    | Some (Wire.Submit { tenant; _ } as req) when tenant >= 0 ->
      Hashtbl.replace tenant_session tenant sid;
      List.iter (route ~from:sid) (submit t req)
    | Some req -> List.iter (route ~from:sid) (submit t req)
  in
  let chunk = Bytes.create 65536 in
  let read_session sid c =
    match Unix.read c.input chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close sid
    | 0 -> close sid
    | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      let requests, stop = Wire.take_requests c.inbuf in
      total_requests := !total_requests + List.length requests;
      List.iter (handle_request sid) requests;
      (* A corrupt frame poisons the rest of the stream: the session is
         dropped after the frames before it; its acked events still
         land via the drain below. *)
      if stop = Journal.Wal.Bad then close sid
  in
  let session_ids () =
    List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) conns [])
  in
  while not !finished do
    if Hashtbl.length conns = 0 && (!served > 0 || listen = None) then begin
      (* Last session gone (EOF, a torn frame or a hang-up): the same
         graceful drain as an explicit Drain — every acked event
         processed, every shard snapshotted — with nobody left to read
         the outcomes. *)
      if not t.draining then ignore (drain t);
      finished := true
    end
    else begin
      let listening =
        match listen with
        | Some fd when Hashtbl.length conns < max_sessions && not !drain_requested
          ->
          [ fd ]
        | _ -> []
      in
      let watch = listening @ Hashtbl.fold (fun _ c acc -> c.input :: acc) conns [] in
      let timeout = if pending t > 0 then 0.0 else -1.0 in
      let readable, _, _ =
        try Unix.select watch [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if List.mem fd readable then
            match Unix.accept fd with
            | exception Unix.Unix_error _ -> ()
            | fd, _ -> open_session ~owned:true fd fd)
        listening;
      (* Poll cycle: pull everything that arrived, then pay one covering
         fsync per dirty shard for the whole batch (group commit),
         release the acks, and run one fair scheduling round. *)
      List.iter
        (fun sid ->
          match Hashtbl.find_opt conns sid with
          | Some c when List.mem c.input readable -> read_session sid c
          | _ -> ())
        (session_ids ());
      List.iter (route ~from:0) (flush t);
      if !drain_requested then begin
        List.iter (route ~from:0) (drain t);
        List.iter close (session_ids ());
        finished := true
      end
      else if pending t > 0 then List.iter (route ~from:0) (tick t)
    end
  done;
  {
    sessions = !served;
    total_requests = !total_requests;
    drain_requested = !drain_requested;
  }
