(** Popularity-driven TCAM caching with neighbor delegation.

    The solved placement's tables are the {e full} placement — the
    solver-verified ground truth.  Real switches hold a smaller
    hardware TCAM, so this layer maintains, per switch, a {e resident}
    subset under a hardware capacity, plus {e delegated} copies of
    evicted DROPs on neighbor switches along the affected paths — the
    FDRC/flow-delegation scheme.  A packet that misses falls through
    the switch's implicit low-priority default (permit and continue),
    and is still decided correctly later on its path:

    - {b permit-safety}: a resident DROP's higher-priority overlapping
      same-tag PERMITs (its guards) are always co-resident at the same
      switch, above it — so no cached table ever drops a packet the
      big-switch policy permits;
    - {b drop-safety}: for every (policy DROP, routed path) pair the
      full placement covers, some switch on the path retains the DROP
      (resident at a home switch, or a delegated copy with its guards
      at a neighbor) — so every policy-dropped packet still dies
      on-path.

    When a DROP can neither stay nor delegate (no neighbor has room),
    it is {e force-pinned} at its home switch; the excess over hardware
    capacity is reported as [overflow] instead of ever trading
    correctness for space.

    Eviction policy: per-rule hit counters from traced {!Netsim} walks,
    halved by {!decay} each epoch; each {!rebalance}
    recomputes the hottest feasible resident set.  All decisions are
    deterministic functions of the accounted traffic, so equal seeds
    give equal cache states, and the whole struct is plain data — it
    rides the controller's snapshot for crash-resume. *)

type t

val create :
  net:Topo.Net.t ->
  paths:Routing.Path.t list ->
  hw:int array ->
  Netsim.entry list array ->
  t
(** [create ~net ~paths ~hw full] boots the cache over the full tables;
    nothing is resident until the first {!rebalance}.  [paths] is the
    flow universe (the instance routing).  Raises [Invalid_argument]
    when [hw] length differs from the switch count. *)

val full_tables : t -> Netsim.entry list array

type walk = { w_full : Netsim.outcome; w_cached : Netsim.outcome }

val account : t -> path:Routing.Path.t -> weight:int -> Ternary.Packet.t -> walk
(** Walk one probe packet (standing for [weight] identical packets of
    its flow) along its path through both the full and the cached
    tables: per-rule hit counters are bumped by [weight] at every
    full-table match, the hit/miss tallies are updated, and both
    outcomes are returned — a disagreement is a correctness violation
    the caller must surface. *)

val decay : t -> unit
(** Halve every popularity score (call once per epoch, before
    accounting). *)

type rebalance_stats = {
  resident : int;  (** resident entries after the pass (all switches) *)
  delegated : int;  (** delegated copies installed *)
  evictions : int;  (** entries resident before the pass, gone after *)
  delegations_new : int;  (** delegated drops not delegated before *)
  pinned : int;  (** force-pinned coverage units (no delegate had room) *)
  overflow : int;  (** slots in excess of hw capacity, summed *)
}

val rebalance : t -> rebalance_stats
(** Recompute residency from current scores: per switch, keep the
    hottest DROPs (with their guards) under hardware capacity; repair
    every uncovered (DROP, path) unit by delegation to the
    most-underutilized on-path neighbor, force-pinning when no
    neighbor has room.  Deterministic given scores. *)

type check_report = {
  guard_violations : int;
  coverage_violations : int;
  capacity_violations : int;  (** switches over hw capacity beyond reported overflow *)
}

val check : t -> check_report
(** Structural self-check of the invariants above on the current cached
    tables; all-zero on a correct state (the bench gates on it). *)

val hits : t -> int
val misses : t -> int
val delegated_hits : t -> int
(** Cached-table matches served by a delegated copy (subset of the hit
    tally's complement accounting; informational). *)

type persisted
(** The cache state (scores, residency, delegations, tallies) as plain
    data, for the controller to seal inside its own snapshot. *)

val capture : t -> persisted
(** A copy of the state: the cache stepping on leaves it as it was. *)

val restore :
  net:Topo.Net.t ->
  paths:Routing.Path.t list ->
  Netsim.entry list array ->
  persisted ->
  t
(** Rebuild from {!capture} output plus the (re-derivable) topology,
    paths and full tables the state was captured against. *)
