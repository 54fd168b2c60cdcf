(** One tenant region of the daemon: a journaled {!Runtime.Engine} plus
    the durable admission state in front of it.

    A shard owns two stores.  The {e journal} store is the engine's
    crash-safe WAL/snapshot pair ({!Journal.Journaled}).  The {e intake}
    store is an append-only log of admitted tickets: an event is acked
    ({!Wire.Accepted}) only after its [(ticket, tenant, op)] record is
    framed, appended and fsynced there — which is the whole no-lost-acks
    guarantee.  Processing then translates each ticket into a
    {!Runtime.Event} against the live network and drives it through the
    journaled engine.

    {b Determinism across crashes.}  Translation draws (ingress
    allocation, path choice, policy synthesis) come from a PRNG whose
    state rides the journal's client blob: captured {e after} drawing
    each event and marking its ticket done (the [Ev_begin] blob), and
    again by every shard snapshot.  Recovery therefore splits the intake
    log exactly: tickets the restored blob marks done were resolved (the
    engine replay re-absorbs the journaled ones); the rest re-translate
    from the restored PRNG state into byte-identical events.  A ticket
    whose translation fails (e.g. [Flow] from a disconnected tenant) is
    resolved as a {e quarantined ticket} — a pure function of the
    restored state, so a crash re-derives the same resolution, and the
    next snapshot (a drain ends in one) makes it durable.

    {b Circuit breakers.}  Each tenant carries a circuit breaker.
    Events that keep escalating the engine's degradation ladder
    (greedy/quarantine outcomes, failed verification) trip it open,
    after which the tenant's events are pinned to the cheap greedy rung
    (quarantine floor intact) until a cooldown of clean outcomes
    half-opens and then closes it: 3 consecutive escalations trip it,
    and 4 clean restricted events half-open it.  The per-event rung
    restriction is persisted in the WAL ({!Journal.Wal.Ev_begin}), so
    replay degrades exactly like the original run.  Breaker steps depend on each event's {e report}, so
    the blob logged at [Ev_begin] lags by one step; {!recover} patches
    that step from the last replayed report (see
    {!Journal.Journaled.set_client}, which only the shard snapshot
    calls). *)

type config = {
  capacity : int;  (** uniform per-switch ACL budget of the shard's net *)
  snapshot_every : int;  (** events between shard snapshots/compactions *)
  engine : Runtime.Engine.config;
}

val default_config : config
(** k=4 fat-tree, capacity 30, snapshot_every 8, a 5 s engine
    deadline. *)

(** The per-tenant circuit breaker, a pure state machine over event
    reports (exposed for direct unit testing; the shard drives it
    internally). *)
type breaker =
  | Closed of { strikes : int }
  | Open of { cooldown_left : int }
  | Half_open

val breaker_step : breaker -> Runtime.Report.t -> breaker
(** One transition.  An {e escalated} report (greedy or quarantine rung,
    or failed verification) strikes a closed breaker — 3 consecutive
    strikes open it with a cooldown of 4 — and re-opens a half-open one.
    While open, only a quarantine rung or failed verification resets the
    cooldown; anything better counts it down to half-open. *)

val restriction : breaker -> Runtime.Report.rung list option
(** The solve-rung restriction an open breaker pins its tenant to. *)

val breaker_name : breaker -> string

type t

type stores = { journal : Journal.Store.t; intake : Journal.Store.t }

val create :
  ?config:config ->
  ?kill:(Journal.Journaled.kill_point -> unit) ->
  stores:stores ->
  seed:int ->
  id:int ->
  unit ->
  t
(** A fresh shard over an {e empty} network (no tenants, no rules):
    placement state grows as tenants connect.  Overwrites both stores.
    [seed] and [id] fix every future translation draw.  [kill] is the
    journal's crash-window hook (see {!Journal.Journaled}), the bench's
    lever for killing the daemon mid-update. *)

(** {1 Admission} *)

val admit : ?sync:bool -> t -> tenant:int -> op:Wire.op -> int
(** Log one admitted operation and return its ticket (a per-shard
    sequence starting at 1).  With [sync] (the default) the intake
    append is fsynced before returning — callers may ack immediately.
    With [~sync:false] the record is only {e staged} (group commit): the
    caller must not ack until a {!flush_intake} — or a {!snapshot},
    whose atomic snap slot carries the pending records — covers it.
    Queue bounds are the caller's job ({!Daemon}); the shard never
    sheds. *)

val flush_intake : t -> unit
(** Durability barrier for every staged intake append: one fsync,
    skipped when nothing is staged.  After it returns, every ticket
    {!admit}ted so far may be acked. *)

val staged_intake : t -> int
(** Admitted tickets whose intake record is not yet covered by a
    barrier (must be 0 whenever an ack is sent). *)

type intake_stats = { appends : int; fsyncs : int }

val intake_stats : t -> intake_stats
(** Lifetime intake-log appends and fsync barriers actually issued —
    the bench's fsyncs-per-event numerator/denominator. *)

val pending : t -> int
(** Admitted tickets not yet processed. *)

val pending_for : t -> tenant:int -> int

val resolved : t -> ticket:int -> bool
(** The ticket has been processed (applied or deterministically
    quarantined).  After a restart plus {!drain}, every ticket ever
    acked must be resolved — the no-lost-acks invariant. *)

(** {1 Processing} *)

type outcome =
  | Applied of { rung : Runtime.Report.rung; verified : bool; quarantined : bool }
  | Quarantined of { reason : string }
      (** translation failed deterministically; the network is untouched *)

type processed = { p_tenant : int; p_ticket : int; p_outcome : outcome }

type batch = (int * int * Wire.op) list
(** One round's selection for this shard, admission order. *)

val plan_round : t -> slots:int -> tenant_cap:int -> batch
(** Select this round's tickets in admission order, while the shard has
    taken fewer than [slots] and the ticket's tenant fewer than
    [tenant_cap].  A tenant refused once is skipped {e as a whole} for
    the round — later tenants overtake it, its own later tickets never
    do.  Pure bookkeeping — nothing touches the engine or the stores,
    and planned tickets stay queued until {!execute_batch} reaches them
    (so a mid-batch intake compaction still sees them) — and shards
    share nothing, so the daemon plans all shards sequentially
    (deterministically) before executing in parallel. *)

val execute_batch : t -> batch -> processed list
(** Process a planned batch in order.  Touches only this shard's state
    and stores, so batches of {e distinct} shards may run on distinct
    domains concurrently; never run two batches of the same shard
    concurrently, and never concurrently with {!admit} on the same
    shard. *)

val drain : t -> processed list
(** Process everything pending in one unbounded round, then snapshot
    the engine journal and compact the intake log. *)

val snapshot : t -> unit
(** Snapshot the journal (post-report client blob included) and compact
    the intake log down to its pending suffix.  The intake compaction
    writes the pending records to the store's snapshot slot {e before}
    truncating the log, so a crash between the two duplicates records
    (deduped on recovery) rather than losing them. *)

(** {1 Recovery} *)

type recovered = {
  shard : t;
  replayed : int;  (** events the journal re-executed *)
  reissued : int;  (** acked tickets rebuilt into the pending queue *)
  divergences : string list;  (** non-empty means state corruption *)
}

val recover :
  ?config:config ->
  ?kill:(Journal.Journaled.kill_point -> unit) ->
  stores:stores ->
  seed:int ->
  id:int ->
  unit ->
  (recovered, string) result
(** Rebuild the shard after a crash: recover the journaled engine,
    restore the translation blob (patching the one possibly-missing
    breaker step from the last replayed report), and re-queue every
    acked-but-unprocessed intake ticket in admission order.  [config]
    and [seed] must match the crashed process.  Ends with {!snapshot},
    so recovering twice is idempotent. *)

(** {1 Inspection} *)

val traffic_walk :
  t ->
  seed:int ->
  epoch:int ->
  packets:int ->
  alpha:float ->
  drift:float ->
  probes:int ->
  int * int * int
(** [(flows, delivered, dropped)] of walking one {!Traffic.Zipf} epoch's
    probe packets over the shard's live tables (traffic-weighted; the
    daemon's [Traffic_tick] wire op).  Probes are aimed at the
    tenants' drop rules as the caching controller aims them
    ({!Traffic.Controller.probe_field}).  Stateless: a pure function of the
    parameters and the live placement, so equal requests to a restarted
    shard get equal answers.  Malformed parameters are clamped, never
    raised on. *)

val signature : t -> string
(** Digest of the shard's complete observable state: live tables,
    quarantine set, dead infrastructure, entry count, event count.
    Byte-identical between a crashed-and-recovered run and an uncrashed
    one — the bench's zero-divergence gate. *)

val tenant_signature : t -> tenant:int -> string
(** Digest of one tenant's view: liveness, assigned ingress, its policy
    and paths in the last-good placement, quarantine membership. *)

val tenants : t -> int list
(** Tenants this shard has ever seen, ascending. *)

val seq : t -> int
(** Events durably absorbed by the journaled engine. *)
