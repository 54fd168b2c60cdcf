(** The traffic-driven caching controller: one epoch loop tying the
    drifting-Zipf workload ({!Zipf}) and the TCAM cache ({!Cache}) to a
    placement solved once, under the total-rules objective, for the
    fixed rule set.

    Each epoch: draw the next traffic matrix; age the popularity scores;
    walk one probe packet per traffic share through {e both} the full
    and the cached tables (differential correctness check + hit
    accounting); rebalance the cache; emit one deterministic report
    line.  The placement itself never changes: the cache adapts to the
    traffic, not the solve.

    Determinism and durability:
    - equal configs give byte-identical {!line} sequences (all
      randomness flows from the family seed's named substreams; report
      lines carry no wall-clock fields);
    - with a store, every epoch boundary (and the placement before
      epoch 0) writes the complete controller state through
      [snap_write], one blob sealed under a versioned magic
      ({!Journal.Wal.seal}).
      A crash anywhere in an epoch loses only that epoch's work: {!resume}
      restarts from the last boundary and re-runs it to the same report
      line;
    - the static baseline ([adaptive = false]) places the cache once,
      popularity-blind, and never adapts — the no-cache-management
      baseline the adaptive hit-rate is gated against. *)

type config = {
  family : Workload.family;  (** instance recipe (topology/routing/policies) *)
  epochs : int;  (** epochs to run *)
  packets : int;  (** exact packets per epoch *)
  alpha : float;  (** Zipf exponent *)
  drift : float;  (** rank transpositions per epoch / flows *)
  probes : int;  (** max probe packets per flow per epoch (>= 1) *)
  hw_frac : float;
      (** hardware TCAM capacity as a fraction of the mean non-empty
          full-table size (floor 1 slot; see {!hw_of_frac}) *)
  decay : float;  (** per-epoch popularity retention *)
  adaptive : bool;  (** false = static baseline (no decay/rebalance) *)
}

val default : config
(** [Workload.default] family, 6 epochs, 4096 packets, alpha 1.1, drift
    0.125, 4 probes, hw_frac 0.5, adaptive. *)

val hw_of_frac : Netsim.entry list array -> float -> int array
(** Per-switch hardware capacity: [frac] of the mean size of the
    non-empty tables, rounded to nearest, never below 1 slot. *)

val probe_field :
  Routing.Path.t array -> Netsim.entry list array -> int -> int -> Ternary.Field.t
(** [probe_field paths tables] is the [~field] argument of {!Zipf.walk}
    over [paths] through [tables]: probe [k] of flow [f] is aimed at one
    of the drop rules of [f]'s ingress policy that can fire inside the
    path's flow space (taken in turn from an offset of [f], so each flow
    concentrates on its own few rules), or drawn over the whole flow
    space when there is none.  A uniform draw almost never hits a
    classbench rule.  The controller's epoch walk and the serving
    layer's traffic tick both aim their probes with it. *)

type epoch_report = {
  e_index : int;
  e_hits : int;  (** this epoch's cache hits (traffic-weighted) *)
  e_misses : int;
  e_dhits : int;  (** hits served by a delegated copy *)
  e_violations : int;  (** full-vs-cached outcome disagreements *)
  e_stats : Cache.rebalance_stats;
  e_check : Cache.check_report;
}

val line : epoch_report -> string
(** Canonical timing-free rendering — the byte-identical replay
    contract is over these. *)

type t

val create : ?store:Journal.Store.t -> config -> t
(** Build the instance, solve the placement, place the cache and, with
    a [store], write the epoch-0 snapshot.  Without a store nothing is
    persisted.  Raises [Invalid_argument] when the solve fails or the
    config is malformed. *)

val resume : store:Journal.Store.t -> config -> (t, string) result
(** Re-enter a crashed run at its last snapshotted epoch boundary.
    [config] must equal the original apart from [epochs] (it is not
    persisted); the snapshot carries the full tables, so nothing is
    solved again.  Further epochs keep writing to [store].  [Error] on
    a missing, corrupt or unknown-version snapshot, or one that does
    not fit [config]; never raises. *)

val step : t -> epoch_report option
(** Run the next epoch ([None] when [epochs] are done).  Spans
    ["traffic.epoch"] when tracing is enabled. *)

val run : t -> epoch_report list
(** {!step} to completion; returns {e all} epoch reports in order,
    including ones produced before a crash/resume. *)

val reports : t -> epoch_report list
(** All epoch reports so far, in order. *)

val epoch : t -> int
(** Next epoch index to run. *)

val violations : t -> int
(** Total differential violations observed (gate: zero). *)
