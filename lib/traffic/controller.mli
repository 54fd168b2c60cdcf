(** The traffic-driven caching controller: one epoch loop tying the
    drifting-Zipf workload ({!Zipf}) and the TCAM cache ({!Cache}) to a
    placement solved once, under the total-rules objective, for the
    fixed rule set.

    The cache is placed once, before epoch 0.  Each epoch: draw the
    next traffic matrix; walk one probe packet per traffic share
    through {e both} the full and the cached tables (differential
    correctness check + hit accounting); emit one deterministic report
    line.  Neither the placement nor the cache changes between epochs;
    only the traffic drifts, so the cache's structural {!Cache.check}
    runs once, before epoch 0, and every report carries its result.

    Determinism: equal configs give byte-identical {!line} sequences
    (all randomness flows from the family seed's named substreams;
    report lines carry no wall-clock fields), so a run is reproduced by
    running its config again. *)

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
}

val default : config
(** [Workload.default] family, 6 epochs, 4096 packets, alpha 1.1, drift
    0.125, 4 probes, hw_frac 0.5. *)

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
  e_stats : Cache.stats;
  e_check : Cache.check_report;
}

val line : epoch_report -> string
(** Canonical timing-free rendering — the byte-identical replay
    contract is over these. *)

val run : config -> epoch_report list
(** Build the instance, solve the placement, place the cache and check
    it, then run the config's epochs, each spanned ["traffic.epoch"]
    when tracing is enabled; returns the epoch reports in order.  The
    run's differential violations are the sum of their [e_violations]
    (gate: zero).  Raises [Invalid_argument] when the solve fails or the
    config is malformed. *)
