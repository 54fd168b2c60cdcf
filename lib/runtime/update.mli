(** Data-plane updates as plans of waves, and the one executor that
    writes them.

    A plan moves the live tables from [old_tables] to [target] as a
    sequence of {e waves} of single-entry installs and deletes, with a
    barrier after each; {!execute} runs any plan.  {!build} plans a
    {e per-packet-consistent} update with the classic two-phase
    tag-and-match construction:

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

    Every intermediate state of that schedule shows each ingress
    entirely-old or entirely-new policy, which the barrier after each
    wave proves path by path.  On each switch of a walk's path it
    compares the rules of the live entries carrying the walk tag with
    those of the reference placement's entries carrying the ingress
    tag; where they are equal on every switch, every packet forwards
    alike and the path is proven without a walk.  Only a path whose projections differ
    walks its probe packets over live tables against the reference's
    verdicts, so the count equals walking every probe.

    {!direct} plans one add-before-delete wave instead: every install of
    the target, then every delete.  Mid-wave the tables hold a superset
    of both placements, so no packet a correct placement drops slips
    through (transient extra drops are the safe direction for a
    firewall), but a packet may see a mix of the two.  The caller
    ({!Engine}) runs it when a consistent update cannot be planned or
    aborts.

    A failed operation rolls its wave back: the wave's applied
    operations are compensated (through the same faulty API, in
    {!Switch_api.compensating} mode) and any switch still off the
    wave's entry snapshot is force-resynced.  A consistent plan then
    retries the wave once; a wave that exhausts its plan's retries
    aborts the whole update back to the pre-update tables.

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
  retries : int;
      (** how often a failed wave is rolled back and run again before
          the update aborts: 1 for {!build}, 0 for {!direct} *)
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
      (** per-switch transient entries beyond the placements' own:
          shadows and stamps, or the direct wave's installs that land
          before its deletes *)
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

val direct :
  old_tables:Netsim.entry list array -> target:Netsim.entry list array -> plan
(** One wave moving [old_tables] to [target] add-before-delete: for each
    switch whose table differs, ascending, the entries [target] adds;
    then, in the same switch order, the entries it drops (multiset
    differences, each in its table's order).  Its commit writes each
    such switch's target order.  No retry, an empty corpus (the barrier
    proves nothing and walks nothing), and no wave when nothing
    differs.  Raises [Invalid_argument] on a switch count mismatch. *)

val execute :
  ?observer:observer ->
  ?on_op:(switch:int -> op:string -> unit) ->
  api:Switch_api.t ->
  plan ->
  result
(** Run the plan's waves, from wave 0, against the live tables.
    A wave whose operation fails is rolled back to its entry snapshot:
    its applied installs are undone newest first, then its applied
    deletes newest first.  It is retried [plan.retries] times; one more
    failure aborts the update to the pre-update tables.  [on_op] is
    called before each per-entry operation, compensation excepted (the
    journal's mid-apply kill-point hook: an exception it raises leaves
    the tables torn, for recovery to repair); [observer] fires at wave
    boundaries, where a test can re-run the barrier
    ({!inconsistencies}) on the live tables.  Only a plan that retries
    its waves counts them in the [sdnplace_update_wave*] series. *)

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
    barrier (probe walks that saw mixed policy, 0 on a sound plan) —
    independent of telemetry, so chaos benches can assert on it even
    with metrics off. *)
