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
   3: nor are wave commits; 4: nor is the transaction around the write,
   and [Ev_commit] carries a tables digest), so a journal written by
   another build is refused, not misread. *)
type snap = {
  snap_seq : int;
  snap_client : string option;
  snap_state : Runtime.Engine.persisted;
}

let snap_magic = "sdnplace-journal/5\n"

let append_record t r =
  let bytes = Wal.encode r in
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.add m_wal_bytes (String.length bytes);
  t.store.Store.wal_append bytes;
  Telemetry.Metrics.incr m_fsyncs;
  Telemetry.Metrics.time m_fsync_s t.store.Store.wal_sync

let tables_digest eng =
  Wal.digest (Runtime.Switch_api.tables (Runtime.Engine.switch_api eng))

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
  let on_op ~switch:_ ~op:_ = t.kill Mid_apply in
  let report = Runtime.Engine.handle ~on_op ?rungs t.eng event in
  t.kill Before_commit;
  append_record t
    (Wal.Ev_commit
       {
         seq;
         signature = Runtime.Report.signature report;
         tables = tables_digest t.eng;
       });
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

type recovery = {
  journaled : t;
  snapshot_seq : int;
  replayed : (int * Runtime.Report.t) list;
  interrupted : int option;
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
  mutable g_commit : (string * string) option;  (* signature, tables digest *)
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
              g_commit = None }
          in
          groups := g :: !groups;
          current := Some g
        | Wal.Ev_commit { seq; signature; tables } -> (
          match !current with
          | Some g when g.g_seq = seq -> g.g_commit <- Some (signature, tables)
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
    let interrupted = ref None in
    let client = ref snap.snap_client in
    let last_seq = ref snap.snap_seq in
    (* Every logged event is re-executed from the snapshot's state
       (deterministic, so the tables are rebuilt, never read back from
       the crashed process).  An event with its [Ev_commit] is
       cross-checked against the logged signature and tables digest;
       the one without is the event the crash interrupted — by
       construction the last group — and simply runs, a consistent
       update from wave 0. *)
    List.iter
      (fun g ->
        (match g.g_client with Some _ -> client := g.g_client | None -> ());
        let report = Runtime.Engine.handle ?rungs:g.g_rungs eng g.g_event in
        (match g.g_commit with
        | Some (logged, tables) ->
          let s = Runtime.Report.signature report in
          if s <> logged then
            diverge "event %d: replay signature %s != logged %s" g.g_seq s logged;
          if tables_digest eng <> tables then
            diverge "event %d: replayed tables differ from the logged digest"
              g.g_seq
        | None -> interrupted := Some g.g_seq);
        replayed := (g.g_seq, report) :: !replayed;
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
        interrupted = !interrupted;
        client = !client;
        dropped_bytes;
        divergences = List.rev !divergences;
      }
