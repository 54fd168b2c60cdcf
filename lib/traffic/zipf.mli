(** Drifting-Zipf traffic epochs.

    A flow is an index into some fixed universe (the traffic layer uses
    a routed path list); an {!epoch} assigns every flow an exact integer
    packet count.  Popularity is Zipf over a seeded rank permutation:
    rank [r] carries weight [(r+1){^-alpha}], rounded to integers by
    largest remainder so every epoch's counts sum {e exactly} to
    [packets].  Between epochs the permutation drifts by a fixed number
    of seeded adjacent-rank transpositions — gradual popularity churn,
    the regime FDRC-style rule caches are built for.

    Determinism follows {!Workload}'s stream discipline:
    - equal configs (seed included) give byte-identical epoch sequences;
    - epochs are generated {e sequentially} from one dedicated stream,
      so epoch [i] depends only on epochs [0..i-1] — running 5 epochs or
      50 leaves the first 5 untouched (the nested-sweep prefix
      property);
    - the stream is independent of the routing/policy streams, so
      adding traffic to an experiment never perturbs its instances. *)

type config = {
  flows : int;  (** flow universe size (>= 1) *)
  packets : int;  (** exact total packets per epoch (>= 0) *)
  alpha : float;  (** Zipf exponent (>= 0; 0 = uniform) *)
  drift : float;
      (** adjacent-rank transpositions per epoch, as a fraction of
          [flows] (>= 0; 0 = static popularity) *)
  seed : int;
}

type epoch = {
  index : int;
  counts : int array;  (** packets per flow; sums to [config.packets] *)
}

type t
(** A sequential epoch stream (mutable). *)

val create : config -> t
(** Positioned to emit epoch 0.  Raises [Invalid_argument] on a config
    with [flows < 1], [packets < 0], or an [alpha] or [drift] that is
    negative, NaN or infinite. *)

val config : t -> config

val next : t -> epoch
(** Emit the next epoch and advance. *)

val epoch : config -> int -> epoch
(** Stateless: regenerate epoch [i] from scratch (O(i) advance). *)

val walk :
  seed:int ->
  probes:int ->
  epoch ->
  field:(int -> int -> Ternary.Field.t) ->
  (int -> Ternary.Packet.t -> int -> unit) ->
  unit
(** [walk ~seed ~probes e ~field f] walks epoch [e]'s traffic as probe
    packets: each flow's count is split over at most [probes] (>= 1)
    probes whose weights differ by at most one and sum to the count.
    Probe [k] of [flow] is a packet drawn inside [field flow k] and
    handed on as [f flow packet weight].  The packets come from a stream
    that is a pure function of [seed] and [e.index]. *)
