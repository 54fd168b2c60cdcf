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
    entirely-new policy, which the barrier after each wave proves
    path by path.  On each switch of a walk's path it compares the rules
    of the live entries carrying the walk tag with those of the
    reference placement's entries carrying the ingress tag; where they
    are equal on every switch, every packet forwards alike and the path
    is proven without a walk.  Only a path whose projections differ
    walks its probe packets over live tables against the reference's
    verdicts, so the count equals walking every probe.

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
  probes : Ternary.Packet.t list Lazy.t;
      (** packets the barrier walks for this ingress, forced only when
          one of its paths' projections differs from the reference's;
          a plan holding an unforced one cannot be marshaled *)
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
  Netsim.entry list array -> Netsim.entry list array -> int list * int list
(** {!Netsim.changed_tags}'s tags and differing switches, adding the
    entries it grouped to [sdnplace_runtime_entries_scanned_total]: the
    one diff {!build} and the engine's verify memo share. *)

val build :
  attach:(int -> int) ->
  corpus:ingress_paths list ->
  old_tables:Netsim.entry list array ->
  target:Netsim.entry list array ->
  plan
(** Plan the wave schedule moving [old_tables] to [target].  The
    affected set and the differing switches come from one
    {!changed_tags} diff; the gc-old and install-new diffs, the
    renormalisation and the final-state check read only the switches an
    operation or a stamp reaches.  [attach]
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
    fires at wave boundaries, where a test can re-run the barrier
    ({!inconsistencies}) on the live tables. *)

val inconsistencies :
  plan -> live:Netsim.entry list array -> committed:int -> int
(** The barrier check itself: the number of probe walks over [live]
    that disagree with the single placement (old or new) the ingress
    must be seeing with [committed] waves in.  A path whose walk-tag
    projection on [live] equals the reference's ingress-tag projection
    on each of its switches adds 0 without a walk; every other path
    walks all its ingress's probes, counted in
    [sdnplace_update_probe_walks_total].  The count is the one walking
    every probe of every path gives. *)

val violations_total : unit -> int
(** Process-wide count of consistency violations ever observed by a
    barrier — independent of telemetry, so chaos benches can assert on
    it even with metrics off. *)
