(** A hardware-capped TCAM cache with neighbor delegation.

    The solved placement's tables are the {e full} placement — the
    solver-verified ground truth.  Real switches hold a smaller
    hardware TCAM, so this layer places, once, per switch, a
    {e resident} subset under a hardware capacity, plus {e delegated}
    copies of the DROPs that do not fit on neighbor switches along the
    affected paths — the flow-delegation scheme.  A packet that misses
    falls through the switch's implicit low-priority default (permit
    and continue), and is still decided correctly later on its path:

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
    it is {e force-pinned} at its home switch, evicting that switch's
    unpinned drops; the excess over hardware capacity is reported as
    [overflow] instead of ever trading correctness for space.

    Residency is a deterministic function of the full tables, the
    paths and the capacities, so equal inputs give equal caches. *)

type t

val create :
  net:Topo.Net.t ->
  paths:Routing.Path.t list ->
  hw:int array ->
  Netsim.entry list array ->
  t
(** [create ~net ~paths ~hw full] places the cache over the full
    tables: per switch, drops are kept in index order while they fit
    with their guards; then every uncovered (DROP, path) unit is
    delegated to the on-path neighbor with the most free space, or
    force-pinned when no neighbor has room.  [paths] is the flow
    universe (the instance routing).  Raises [Invalid_argument] when
    [hw] length differs from the switch count. *)

type stats = {
  resident : int;  (** resident entries (all switches) *)
  delegated : int;  (** delegated copies installed *)
  pinned : int;  (** force-pinned coverage units (no delegate had room) *)
  overflow : int;  (** slots in excess of hw capacity, summed *)
}

val stats : t -> stats

type walk = { w_full : Netsim.outcome; w_cached : Netsim.outcome }

val account : t -> path:Routing.Path.t -> weight:int -> Ternary.Packet.t -> walk
(** Walk one probe packet (standing for [weight] identical packets of
    its flow) along its path through both the full and the cached
    tables, and return both outcomes — a disagreement is a correctness
    violation the caller must surface.  A switch's TCAM of [hw] slots
    holds the first [hw] entries of its cached table: the packet is a
    hit when every entry it matches on the cached walk is among them,
    else a miss. *)

type check_report = {
  guard_violations : int;
  coverage_violations : int;
  capacity_violations : int;  (** switches over hw capacity beyond reported overflow *)
}

val check : t -> check_report
(** Structural self-check of the invariants above on the cached
    tables; all-zero on a correct state (the bench gates on it). *)

val hits : t -> int
val misses : t -> int
val delegated_hits : t -> int
(** Hits in which a delegated copy matched. *)
