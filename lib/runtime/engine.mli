(** The fault-tolerant reconciliation loop.

    The engine owns the controller's view of a running network: a
    last-known-good {!Placement.Solution}, the live per-switch tables
    behind a fault-injectable {!Switch_api}, and the set of quarantined
    ingresses.  {!handle} absorbs one {!Event} under a wall-clock
    deadline by walking the {b graceful-degradation ladder}:

    + {b incremental} — a deadline-bounded {!Placement.Incremental}
      sub-solve (half the event budget): frozen placements stay, only
      the affected ingresses move;
    + {b full re-solve} — a from-scratch {!Placement.Solve.run} with
      whatever budget remains, using the configured engine;
    + {b greedy} — the {!Placement.Baseline} ingress-first heuristic,
      effectively instant;
    + {b quarantine} — fail closed: the last-good tables stay, the
      affected ingresses are fenced with a highest-priority DROP-any
      entry at their attachment switch, and the event is recorded as
      degraded.

    Whichever rung produces a placement, one executor,
    {!Update.execute}, writes the table delta, walking the {e write
    ladder}: first a per-packet-consistent plan ({!Update.build}); when
    that cannot be planned or aborts, the direct add-before-delete plan
    ({!Update.direct}, reported as {!Report.Committed_fallback}).  A
    direct plan that aborts has rolled the tables back to the pre-event
    state, and the event drops to the quarantine rung.  After {e every}
    event the active placement is re-verified ({!Placement.Verify}
    structural + semantic, a packet walk of the {e live} tables against
    every policy, and a fail-closed check that quarantined ingresses'
    packets are dropped); the result lands in the event's {!Report}.
    The declared tables are patched from the last verify's
    ({!Placement.Tables.patch}): only the switches whose cells changed
    are ordered afresh.  The capacity and fail-closed checks run in
    full.  The structural check and the semantic and live walks are
    redone only for the ingresses whose policy, paths or quarantine
    state changed since the last verify, or whose placement did: a
    cell on a switch whose cells changed (structural), or a changed tag
    projection in the declared or live tables ({!Netsim.changed_tags}
    against an in-memory copy of both); the others keep their stored
    verdicts, [false] included.  The first verify after {!create} or
    {!restore}, every 16th, and one after slicing flipped check every
    ingress.

    Determinism: all randomness (fault draws, backoff jitter, re-routing
    path choice, verification probes) flows from seeds fixed at
    {!create}, so equal seeds and equal event streams give equal report
    {!Report.signature} sequences. *)

type config = {
  deadline_s : float;  (** per-event wall-clock budget (default 30) *)
  solve_options : Placement.Solve.options;
      (** solver options for the incremental and full rungs *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?fault:Fault_plan.t ->
  Placement.Solution.t ->
  t
(** Boots the runtime from an initial placement: the live tables are the
    solution's tables ({!Placement.Tables.of_solution}), nothing is
    quarantined, nothing is dead.  The per-event deadline and the
    report's [wall_s] read the wall clock ([Unix.gettimeofday]). *)

type persisted
(** The engine's complete durable state: last-good solution, quarantine
    records, dead infrastructure, live tables, retry statistics, and
    {e every} PRNG stream (fault draws, re-routing, verification) — so a
    restored engine replays future events byte-for-byte like the
    original.  Plain data, safe to [Marshal] (the clock and config are
    deliberately excluded; they are re-supplied at {!restore}; so is
    the verify memo, which only saves work). *)

val capture : t -> persisted
(** A cheap structural view sharing the engine's mutable state —
    serialize it before handling further events. *)

val restore : ?config:config -> persisted -> t
(** Rebuild an engine from captured state.  [config] must match the one
    the original engine ran with for replay determinism (solver options
    change solve outcomes). *)

val table_snapshot : t -> Netsim.entry list array
(** A deep-enough copy of the live per-switch tables. *)

val good : t -> Placement.Solution.t
(** The last-known-good placement (instance included). *)

val declared : t -> Netsim.entry list array
(** The declared tables the last verify checked: the good placement's
    tables, patched ({!Placement.Tables.patch}) from the verify before's.
    Before the first verify, the tables {!create} or {!restore} built;
    a verify that raised keeps the ones before it. *)

val switch_api : t -> Switch_api.t
(** The live data plane's write path.  A write through it, or into its
    {!Switch_api.tables} array, between events is drift the next verify
    must see. *)

val live_entries : t -> int
(** Total entries currently installed. *)

val quarantined : t -> int list
(** Fenced ingresses, ascending. *)

val dead_switches : t -> int list

val handle :
  ?on_op:(switch:int -> op:string -> unit) ->
  ?rungs:Report.rung list ->
  t ->
  Event.t ->
  Report.t
(** Absorb one event.  Never raises on malformed events (they are
    rejected in the report); never leaves the tables torn.

    [on_op] is called before each per-entry install/delete of the data
    plane write, the consistent plan's or the direct plan's — where
    the crash-safe journal places its mid-apply kill point.  An
    exception it raises propagates out of [handle] (a simulated crash).

    [rungs] restricts the {e solve} rungs of the ladder for this event
    only (quarantine stays available as the floor), in place of the
    full ladder (incremental, full-resolve, greedy) — the serving layer's
    circuit breaker uses it to pin a misbehaving tenant to the cheap
    greedy/fail-closed rungs.  A replayed event must be re-handled with the same restriction to
    reproduce the same report (the journal persists it per event). *)
