exception Killed of string

type kill_point =
  | Before_begin
  | After_begin
  | Mid_apply
  | Before_commit
  | After_commit

let kill_point_name = function
  | Before_begin -> "before-begin"
  | After_begin -> "after-begin"
  | Mid_apply -> "mid-apply"
  | Before_commit -> "before-commit"
  | After_commit -> "after-commit"

let all_kill_points =
  [ Before_begin; After_begin; Mid_apply; Before_commit; After_commit ]

type config = { snapshot_every : int }

let default_config = { snapshot_every = 8 }

(* Registry-backed observability: the process-wide aggregate of the
   journal's durability work. *)
let m_appends =
  Telemetry.Metrics.counter ~help:"WAL records appended"
    "sdnplace_journal_appends_total"

let m_wal_bytes =
  Telemetry.Metrics.counter ~help:"WAL bytes written"
    "sdnplace_journal_wal_bytes_total"

let m_fsyncs =
  Telemetry.Metrics.counter ~help:"WAL durability barriers issued"
    "sdnplace_journal_fsyncs_total"

let m_fsync_s =
  Telemetry.Metrics.histogram ~help:"WAL fsync latency"
    "sdnplace_journal_fsync_seconds"

let m_snapshots =
  Telemetry.Metrics.counter ~help:"full-state snapshots written"
    "sdnplace_journal_snapshots_total"

let m_snapshot_s =
  Telemetry.Metrics.histogram ~help:"snapshot write + compaction latency"
    "sdnplace_journal_snapshot_seconds"

let m_compactions =
  Telemetry.Metrics.counter ~help:"log truncations after a snapshot"
    "sdnplace_journal_compactions_total"

let m_recoveries =
  Telemetry.Metrics.counter ~help:"successful crash recoveries"
    "sdnplace_journal_recoveries_total"

let m_replayed =
  Telemetry.Metrics.counter ~help:"events re-executed during recovery"
    "sdnplace_journal_replayed_events_total"

let m_dropped =
  Telemetry.Metrics.counter ~help:"torn/corrupt WAL tail bytes truncated"
    "sdnplace_journal_dropped_bytes_total"

type t = {
  store : Store.t;
  journal : config;
  eng : Runtime.Engine.t;
  mutable seq : int;
  mutable client : string option;
  mutable since_snapshot : int;
  kill : kill_point -> unit;
}

(* The snapshot blob: everything below sealed as one value
   ({!Wal.seal}).  Engine state and the journal's own counters travel in
   a single Marshal call so the sharing inside [Engine.persisted] (the
   fault plan referenced from both the engine and its switch API)
   survives the round-trip.  The magic's version moves with this record
   and with the WAL record tags (2: wave starts are no longer logged;
   3: nor are wave commits), so a journal written by another build is
   refused, not misread. *)
type snap = {
  snap_seq : int;
  snap_client : string option;
  snap_state : Runtime.Engine.persisted;
}

let snap_magic = "sdnplace-journal/3\n"

let append_record t r =
  let bytes = Wal.encode r in
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.add m_wal_bytes (String.length bytes);
  t.store.Store.wal_append bytes;
  Telemetry.Metrics.incr m_fsyncs;
  Telemetry.Metrics.time m_fsync_s t.store.Store.wal_sync

let snapshot_now t =
  Telemetry.Metrics.incr m_snapshots;
  Telemetry.Metrics.time m_snapshot_s @@ fun () ->
  let blob =
    Wal.seal ~magic:snap_magic
      {
        snap_seq = t.seq;
        snap_client = t.client;
        snap_state = Runtime.Engine.capture t.eng;
      }
  in
  (* Snapshot first, truncate second: a crash between the two leaves
     both a valid snapshot and the records it covers, and recovery skips
     any record whose seq the snapshot already includes. *)
  t.store.Store.snap_write blob;
  t.store.Store.wal_reset ();
  Telemetry.Metrics.incr m_compactions;
  t.since_snapshot <- 0

let create ?config ?(journal = default_config) ?fault ?(kill = fun _ -> ())
    ~store initial =
  let eng = Runtime.Engine.create ?config ?fault initial in
  let t = { store; journal; eng; seq = 0; client = None; since_snapshot = 0; kill } in
  snapshot_now t;
  t

let handle ?client ?rungs t event =
  Telemetry.Trace.with_span "journal.event" @@ fun () ->
  t.kill Before_begin;
  let seq = t.seq + 1 in
  append_record t (Wal.Ev_begin { seq; event; client; rungs });
  t.kill After_begin;
  let tx =
    {
      Runtime.Engine.on_intent =
        (fun ~undo ~redo -> append_record t (Wal.Tx_intent { seq; undo; redo }));
      on_op = (fun ~switch:_ ~op:_ -> t.kill Mid_apply);
      on_commit = (fun () -> append_record t (Wal.Tx_commit { seq }));
    }
  in
  let report = Runtime.Engine.handle ~tx ?rungs t.eng event in
  t.kill Before_commit;
  append_record t
    (Wal.Ev_commit { seq; signature = Runtime.Report.signature report });
  t.seq <- seq;
  (match client with Some _ -> t.client <- client | None -> ());
  t.kill After_commit;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot >= t.journal.snapshot_every then snapshot_now t;
  report

let engine t = t.eng
let seq t = t.seq
let client t = t.client
let set_client t blob = t.client <- Some blob

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type resolution =
  | Replayed of int
  | Rolled_back of int
  | Rolled_forward of int

type recovery = {
  journaled : t;
  snapshot_seq : int;
  replayed : (int * Runtime.Report.t) list;
  resolution : resolution option;
  client : string option;
  dropped_bytes : int;
  divergences : string list;
}

(* One event's worth of WAL records, grouped at its [Ev_begin]. *)
type group = {
  g_seq : int;
  g_event : Runtime.Event.t;
  g_client : string option;
  g_rungs : Runtime.Report.rung list option;
  mutable g_intent : (Netsim.entry list array * Netsim.entry list array) option;
  mutable g_commit : bool;
  mutable g_sig : string option;
}

let group_records ~snap_seq records =
  let groups = ref [] and current = ref None in
  List.iter
    (fun r ->
      if Wal.seq_of r > snap_seq then
        match r with
        | Wal.Ev_begin { seq; event; client; rungs } ->
          let g =
            { g_seq = seq; g_event = event; g_client = client; g_rungs = rungs;
              g_intent = None; g_commit = false; g_sig = None }
          in
          groups := g :: !groups;
          current := Some g
        | Wal.Tx_intent { seq; undo; redo } -> (
          match !current with
          | Some g when g.g_seq = seq -> g.g_intent <- Some (undo, redo)
          | _ -> ())
        | Wal.Tx_commit { seq } -> (
          match !current with
          | Some g when g.g_seq = seq -> g.g_commit <- true
          | _ -> ())
        | Wal.Ev_commit { seq; signature } -> (
          match !current with
          | Some g when g.g_seq = seq -> g.g_sig <- Some signature
          | _ -> ()))
    records;
  List.rev !groups

let read_snapshot store =
  match store.Store.snap_read () with
  | None -> Error "no snapshot"
  | Some blob -> (Wal.unseal ~magic:snap_magic blob : (snap, string) result)

let has_snapshot store =
  match store.Store.snap_read () with
  | None -> Ok false
  | Some _ -> Result.map (fun _ -> true) (read_snapshot store)

let recover ?config ?(journal = default_config) ?(kill = fun _ -> ())
    ?(resnap = true) ~store () =
  match read_snapshot store with
  | Error _ as e -> e
  | Ok snap ->
    let eng = Runtime.Engine.restore ?config snap.snap_state in
    let log = store.Store.wal_read () in
    let records, consumed = Wal.scan log in
    let dropped_bytes = String.length log - consumed in
    let groups = group_records ~snap_seq:snap.snap_seq records in
    let divergences = ref [] in
    let diverge fmt = Printf.ksprintf (fun s -> divergences := s :: !divergences) fmt in
    let replayed = ref [] in
    let resolution = ref None in
    let client = ref snap.snap_client in
    let last_seq = ref snap.snap_seq in
    List.iter
      (fun g ->
        (match g.g_client with Some _ -> client := g.g_client | None -> ());
        (match g.g_sig with
        | Some logged ->
          (* Fully absorbed before the crash: re-execute (deterministic)
             and cross-check against the logged signature. *)
          let report = Runtime.Engine.handle ?rungs:g.g_rungs eng g.g_event in
          let s = Runtime.Report.signature report in
          if s <> logged then
            diverge "event %d: replay signature %s != logged %s" g.g_seq s logged;
          replayed := (g.g_seq, report) :: !replayed
        | None ->
          (* The crash interrupted this event — by construction it is the
             last group.  Repair the data plane from the logged undo
             snapshot if the write tore it, then re-execute from the
             pre-event state (a consistent update from wave 0). *)
          (match g.g_intent with
          | Some (undo, _) ->
            if Runtime.Engine.table_snapshot eng <> undo then begin
              diverge "event %d: live tables differ from logged undo; resynced" g.g_seq;
              Runtime.Engine.resync eng undo
            end
          | None -> ());
          let report = Runtime.Engine.handle ?rungs:g.g_rungs eng g.g_event in
          (match g.g_intent with
          | Some (_, redo) when g.g_commit ->
            resolution := Some (Rolled_forward g.g_seq);
            if Runtime.Engine.table_snapshot eng <> redo then
              diverge "event %d: rolled-forward tables differ from logged redo"
                g.g_seq
          | Some _ -> resolution := Some (Rolled_back g.g_seq)
          | None -> resolution := Some (Replayed g.g_seq));
          replayed := (g.g_seq, report) :: !replayed);
        last_seq := g.g_seq)
      groups;
    let t =
      { store; journal; eng; seq = !last_seq; client = !client; since_snapshot = 0;
        kill }
    in
    (* Re-snapshot and compact so recovering twice in a row is a no-op
       on an empty log.  A caller whose client blob still needs
       patching from the replayed reports (see the mli) passes
       [~resnap:false], finishes the patch, and snapshots itself — the
       intact log keeps a crash during that window recoverable. *)
    if resnap then snapshot_now t;
    Telemetry.Metrics.incr m_recoveries;
    Telemetry.Metrics.add m_replayed (List.length !replayed);
    Telemetry.Metrics.add m_dropped dropped_bytes;
    Ok
      {
        journaled = t;
        snapshot_seq = snap.snap_seq;
        replayed = List.rev !replayed;
        resolution = !resolution;
        client = !client;
        dropped_bytes;
        divergences = List.rev !divergences;
      }
