(** Ternary bit-vectors: fixed-width arrays over [{0, 1, *}].

    A ternary bit-vector (TBV) is the matching field of a TCAM entry: each
    position is either a cared-for bit value ([Zero] or [One]) or a wildcard
    ([Star]) that matches both.  A TBV of width [w] denotes the set of
    concrete [w]-bit strings obtained by substituting each [Star] with either
    value; the set-algebraic operations below ([inter], [is_disjoint]) are
    exact on those denoted sets.

    The representation packs the vector into two machine-integer word arrays
    (a care mask and a value array), so every operation is a few bitwise
    instructions per 32 positions.  Values are immutable. *)

type t

type trit = Zero | One | Star

val width : t -> int
(** Number of ternary positions. *)

val all_star : int -> t
(** [all_star w] is the width-[w] vector matching every [w]-bit string. *)

val get : t -> int -> trit
(** [get t i] is position [i]; position 0 is the leftmost (most significant)
    bit.  Raises [Invalid_argument] when out of bounds. *)

val set : t -> int -> trit -> t
(** Functional update. *)

val is_disjoint : t -> t -> bool
(** [is_disjoint a b] iff no concrete string matches both, i.e. some
    position has [Zero] in one and [One] in the other.  Widths must agree. *)

val inter : t -> t -> t option
(** Exact intersection: [inter a b] is [None] when disjoint, otherwise the
    TBV denoting exactly the strings matching both (TBV sets are closed
    under intersection). *)

val prefix : width:int -> value:int -> len:int -> t
(** [prefix ~width ~value ~len] cares about the [len] leftmost positions,
    which spell the top [len] bits of the [width]-bit integer [value]; the
    rest are [Star].  This is the TBV of an address prefix. *)

val exact : width:int -> int -> t
(** [exact ~width v] matches exactly the [width]-bit integer [v]. *)

val concat : t -> t -> t
(** [concat a b] juxtaposes the two vectors ([a] leftmost); matches the
    cartesian product of their denoted sets. *)

val matches_int : t -> int -> bool
(** [matches_int t v] tests the concrete value [v] (width at most 62 bits),
    bit [width-1] of [v] aligned with position 0. *)

val random : Prng.t -> width:int -> star_prob:float -> t
(** Independent trits; each is [Star] with probability [star_prob], else a
    fair coin between [Zero] and [One]. *)

val random_member : Prng.t -> t -> int
(** A uniformly random concrete value matching [t] (width at most 62). *)
