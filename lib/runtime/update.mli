(** Per-packet-consistent update scheduling in waves.

    {!Transaction} moves the data plane add-before-delete, which keeps a
    firewall safe (transient extra drops only) but not {e consistent}: a
    packet in flight mid-transaction can match a mix of the outgoing and
    incoming placements.  This module upgrades an update to per-packet
    consistency with the classic two-phase tag-and-match construction,
    executed as a sequence of {e waves} with a barrier after each:

    + {b shadow waves} (deepest switches first) install a version-tagged
      copy of every new-placement entry an affected ingress needs, keyed
      on {!Netsim.vtag}; invisible to live (plain-tagged) traffic;
    + the {b flip wave} installs a {!Netsim.stamp_tag} marker per
      affected ingress at its attachment switch — from this barrier on,
      affected traffic is walked with the version tag and sees exactly
      the new placement's shadows;
    + {b gc-old} deletes the outgoing placement's entries (dead, since
      every affected ingress flipped);
    + {b install-new} appends the incoming placement's plain entries
      (invisible to version-tagged walks) and, at its commit,
      renormalises each touched switch to target priority order;
    + {b unflip} removes the stamps — plain walks now see exactly the
      target — and {b gc-shadow} removes the version-tagged copies.

    Every intermediate state shows each ingress entirely-old or
    entirely-new policy, which the barrier after each wave re-proves by
    walking probe packets over live tables against the old and new
    placements' verdicts.  It re-walks only what changed since the last
    passing barrier: every walk of an ingress whose mode (paths, walk
    tag, reference) changed, and any other walk whose tag's projection
    changed on a switch of its path.  A skipped walk sees what it saw
    when it last matched, so the count equals a full check's.

    A failed operation triggers bounded retry of its wave: applied
    operations are compensated (through the same faulty API, in
    {!Switch_api.compensating} mode) and the wave restarts from its
    entry snapshot.  A wave that exhausts its retries aborts the whole
    update back to the pre-update tables; the caller ({!Engine}) then
    degrades to the legacy single-transaction path.

    Nothing is persisted per wave or per operation.  A crash mid-update
    is recovered by rebuilding the pre-event state (the journal's
    snapshot plus the events logged after it) and re-running the whole
    update from wave 0: planning and execution are deterministic
    functions of that state, so the re-run reaches the same tables. *)

type ingress_paths = {
  ingress : int;
  old_paths : Routing.Path.t list;  (** routed paths before the update *)
  new_paths : Routing.Path.t list;  (** routed paths after the update *)
  probes : Ternary.Packet.t list;
      (** packets the barrier walks for this ingress *)
}

type op =
  | Install of { switch : int; entry : Netsim.entry }
  | Delete of { switch : int; entry : Netsim.entry }

type wave = {
  label : string;  (** ["shadow-depth-N"], ["flip"], ["gc-old"], ... *)
  ops : op list;
  reorders : (int * Netsim.entry list) list;
      (** content-preserving priority rewrites applied at wave commit
          (controller writes, no fault draws) *)
}

type plan = {
  waves : wave array;
  flip_wave : int;  (** index of the flip wave, [-1] when nothing flips *)
  unflip_wave : int;
  affected : int list;
      (** ingresses whose projection or paths change, sorted: the plain
          tags {!changed_tags} finds between [old_tables] and [target],
          plus the ingresses whose corpus paths differ *)
  corpus : ingress_paths list;
  old_tables : Netsim.entry list array;  (** detached pre-update snapshot *)
  target : Netsim.entry list array;
  shadow_headroom : int array;
      (** per-switch transient entries (shadows + stamps) beyond the
          placements' own *)
  base_occupancy : int array;  (** per-switch [max |old| |target|] *)
  peak_occupancy : int array;
      (** per-switch maximum simulated occupancy over the whole update;
          bounded by base + headroom *)
}

type observer = {
  on_wave_begin : wave:int -> unit;
  on_wave_commit : wave:int -> unit;
      (** after the wave's barrier re-proved consistency *)
}

type outcome =
  | Committed
  | Aborted of { switch : int; op : string }
      (** [op] is ["install"] / ["delete"] for an exhausted operation
          ([switch] = its switch), or ["verify"] (switch [-1]) when a
          barrier caught a consistency violation *)

type result = {
  outcome : outcome;
  waves_committed : int;
  wave_rollbacks : int;
  violations : int;  (** probe walks that saw mixed policy (0 on a sound plan) *)
}

val changed_tags :
  Netsim.entry list array -> Netsim.entry list array -> int list
(** {!Netsim.changed_tags}, adding the entries it grouped to
    [sdnplace_runtime_entries_scanned_total]: the one diff {!build} and
    the engine's verify memo share. *)

val build :
  attach:(int -> int) ->
  corpus:ingress_paths list ->
  old_tables:Netsim.entry list array ->
  target:Netsim.entry list array ->
  plan
(** Plan the wave schedule moving [old_tables] to [target].  The
    affected set comes from one {!changed_tags} diff, so only the
    switches whose tables differ are read to find it.  [attach]
    gives an ingress's attachment switch, used to place its flip stamp
    when it has no new path.  Deterministic: equal inputs yield equal
    plans.  The whole schedule is simulated at plan time; raises
    [Invalid_argument] if the simulated final state is not exactly the
    target (a planner bug, never data-dependent). *)

val execute :
  ?observer:observer ->
  ?on_op:(switch:int -> op:string -> unit) ->
  api:Switch_api.t ->
  plan ->
  result
(** Run the plan's waves, from wave 0, against the live tables.
    A wave whose operation fails is rolled back to its entry snapshot
    and retried once; a second failure aborts the update to the
    pre-update tables.  [on_op] is called before each per-entry
    operation (the journal's mid-apply kill-point hook); [observer]
    fires at wave boundaries, where a test can re-run the full barrier
    oracle ({!inconsistencies} without [since]) on the live tables. *)

val inconsistencies :
  ?since:Netsim.entry list array * int ->
  plan ->
  live:Netsim.entry list array ->
  committed:int ->
  int
(** The barrier check itself: number of probe walks over [live] that
    disagree with the single placement (old or new) the ingress must be
    seeing with [committed] waves in.  Without [since] it is the full
    oracle, walking every probe of every ingress.  [since] is the tables
    and committed count of a barrier that found nothing: only walks
    whose mode or walk-tag projection changed since then are re-walked,
    which gives the same count; {!execute} always passes it. *)

val violations_total : unit -> int
(** Process-wide count of consistency violations ever observed by a
    barrier — independent of telemetry, so chaos benches can assert on
    it even with metrics off. *)
