(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the library (topology wiring, routing path
    selection, policy synthesis, test-case generation) draw from this module
    rather than [Stdlib.Random] so that every experiment is reproducible from
    a single integer seed.  The generator is SplitMix64 (Steele, Lea &
    Flood, OOPSLA 2014): a 64-bit state advanced by a Weyl sequence and
    finalized with a variant of the MurmurHash3 mixer.  It is fast, has a
    full 2^64 period, and passes BigCrush when used as specified. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal streams. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator seeded from it, so
    that the two subsequent streams are statistically independent.  Used to
    hand independent sub-streams to sub-components without coupling their
    consumption order. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in \[0, n).  Raises [Invalid_argument] if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in \[lo, hi\] inclusive. *)

val float : t -> float -> float
(** [float g x] is uniform in \[0, x). *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
