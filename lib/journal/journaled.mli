(** Crash-safe persistence around {!Runtime.Engine}.

    A journaled engine writes two {!Wal} records per event it absorbs —
    [Ev_begin] before the engine sees it, [Ev_commit] (the report's
    signature and a digest of the live tables) once the report is in
    hand — each fsynced before the next step runs, and periodically
    compacts the log into a full-state snapshot
    ({!Runtime.Engine.persisted} plus the journal's own counters),
    sealed under the magic ["sdnplace-journal/5\n"] ({!Wal.seal}).

    {!recover} inverts that: load the latest valid snapshot, replay the
    log's longest valid prefix (a torn or corrupt tail is truncated, not
    fatal) by re-executing every logged event, the at-most-one event
    the crash interrupted included — a consistent update re-runs from
    wave 0, whatever waves had committed before the crash.  Nothing is
    read back from the crashed process's data plane.  Because every
    source of engine randomness lives in the snapshot, the recovered
    engine's tables and report signatures are byte-identical to a run
    that never crashed — each replayed event with an [Ev_commit] is
    checked against its logged signature and tables digest, and a
    divergence is reported, never silently accepted.

    Crash windows are modeled as {e kill points}: a caller-supplied hook
    invoked at each boundary of the write protocol, which the test
    harness uses to raise {!Killed} at every point in turn and assert
    recovery converges. *)

exception Killed of string
(** The harness's simulated crash.  The journal never raises it itself;
    it is declared here so the kill hook, the chaos bench and the CLI
    agree on what a simulated power cut looks like. *)

type kill_point =
  | Before_begin  (** before the [Ev_begin] record is written *)
  | After_begin  (** [Ev_begin] durable, engine has not run *)
  | Mid_apply
      (** before a per-entry table operation of any wave, the
          consistent plan's or the direct plan's (fires per op;
          rollback compensation does not fire it) *)
  | Before_commit  (** event handled, [Ev_commit] not yet written *)
  | After_commit  (** [Ev_commit] durable, before any compaction *)

val kill_point_name : kill_point -> string

val all_kill_points : kill_point list

type config = {
  snapshot_every : int;
      (** events between automatic snapshot + log compaction
          (default 8; [max_int] disables automatic snapshots) *)
}

val default_config : config

(** Process-wide journal tallies are telemetry series:
    [sdnplace_journal_{appends,wal_bytes,fsyncs,snapshots,compactions,
    recoveries,replayed_events,dropped_bytes}_total], plus the
    [sdnplace_journal_fsync_seconds] and
    [sdnplace_journal_snapshot_seconds] latency histograms. *)

type t

val create :
  ?config:Runtime.Engine.config ->
  ?journal:config ->
  ?fault:Runtime.Fault_plan.t ->
  ?kill:(kill_point -> unit) ->
  store:Store.t ->
  Placement.Solution.t ->
  t
(** Boot a fresh journaled engine from an initial placement and
    immediately persist snapshot zero (so {!recover} works even before
    the first event).  Any existing journal in [store] is overwritten. *)

val handle :
  ?client:string ->
  ?rungs:Runtime.Report.rung list ->
  t ->
  Runtime.Event.t ->
  Runtime.Report.t
(** Absorb one event through the write-ahead protocol.  [client] is an
    opaque blob persisted in the [Ev_begin] record and in snapshots —
    pass the {e post-event} state of whatever generates your events
    (e.g. {!Runtime.Churn.capture} {e after} drawing this event), so
    that a resumed run continues the stream exactly where the crash cut
    it: if the crash lands before this event's begin record, the
    restored blob regenerates this same event; after it, the blob
    generates the next one.  [rungs] restricts the solve ladder for this
    event (see {!Runtime.Engine.handle}); it is persisted in the
    [Ev_begin] record so recovery re-handles the event under the same
    restriction. *)

val engine : t -> Runtime.Engine.t
val seq : t -> int  (** events durably absorbed so far *)

val client : t -> string option
(** The most recent client blob (restored by {!recover}). *)

val set_client : t -> string -> unit
(** Replace the client blob the {e next} snapshot will persist, without
    writing anything.  For a caller whose client state also changes
    outside journaled events (the serving layer: its circuit breaker
    steps on a report's outcome, and rejected tickets never reach the
    engine): the blob passed to {!handle} rides the [Ev_begin] record
    for replay, and the caller installs its current state here right
    before {!snapshot_now}, so every snapshot freezes the newest state.
    Recovery then patches the at-most-one missing step from the last
    replayed report. *)

val snapshot_now : t -> unit
(** Force a snapshot and compact the log.  The snapshot is written
    before the log is truncated, so a crash between the two is safe:
    recovery skips log records the snapshot already covers. *)

(** {1 Recovery} *)

type recovery = {
  journaled : t;  (** ready to absorb further events *)
  snapshot_seq : int;  (** the snapshot the log was replayed on top of *)
  replayed : (int * Runtime.Report.t) list;
      (** re-executed events in order, with their replay reports *)
  interrupted : int option;
      (** the seq of the at-most-one event re-run without an
          [Ev_commit]: the event the crash interrupted *)
  client : string option;  (** most recent durable client blob *)
  dropped_bytes : int;  (** torn/corrupt log tail truncated by the scan *)
  divergences : string list;
      (** replay cross-check failures: signature or tables-digest
          mismatches vs the logged [Ev_commit] records.  Empty on a
          healthy recovery. *)
}

val has_snapshot : Store.t -> (bool, string) result
(** Read [store]'s snapshot without writing anything: [Ok false] when
    there is none (a fresh store), [Ok true] when {!recover} can start
    from it, and {!recover}'s own [Error] when it is corrupt or of an
    unknown version.  A caller that boots fresh on a missing snapshot
    must not do so on a bad one: that would overwrite acked state. *)

val recover :
  ?config:Runtime.Engine.config ->
  ?journal:config ->
  ?kill:(kill_point -> unit) ->
  ?resnap:bool ->
  store:Store.t ->
  unit ->
  (recovery, string) result
(** Rebuild a journaled engine from [store].  [config] must match what
    the crashed process ran with (it is deliberately not persisted —
    solver options contain closures and host-specific knobs).  On
    success the store has been re-snapshotted and compacted, so recovery
    is idempotent: recovering again immediately yields the same state
    with an empty log.  [resnap:false] skips that final snapshot and
    leaves the log intact — for callers that must first patch their
    client blob from the replayed reports (see {!set_client}) and then
    call {!snapshot_now} themselves; a crash inside that window replays
    the same log again, so nothing is lost.  [Error] is returned only
    when no usable snapshot exists (missing or corrupt beyond its
    checksum). *)
