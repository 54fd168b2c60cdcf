(** Inclusive integer intervals over the 16-bit port space.

    TCAMs cannot match an arbitrary interval directly; a range must be
    expanded into ternary prefixes.  {!to_prefixes} performs the classic
    minimal prefix cover (at most [2*16 - 2] prefixes for a 16-bit range),
    which {!Field.to_tbvs} uses to count real TCAM slot consumption. *)

type t = private { lo : int; hi : int }

val bits : int
(** Width of the port space (16). *)

val max_value : int
(** [2^bits - 1]. *)

val make : int -> int -> t
(** [make lo hi], inclusive on both ends.  Raises [Invalid_argument] when
    [lo > hi] or a bound is outside [0, max_value]. *)

val full : t
(** The whole space [0, max_value]. *)

val point : int -> t
(** Singleton range. *)

val lo : t -> int

val hi : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val is_full : t -> bool

val inter : t -> t -> t option

val to_prefixes : t -> (int * int) list
(** Minimal prefix cover as [(value, prefix_len)] pairs: the union of the
    covers is exactly the range and the blocks are pairwise disjoint. *)

val to_tbvs : t -> Tbv.t list
(** Ternary encoding of {!to_prefixes} over [bits] positions. *)

val random_member : Prng.t -> t -> int

val pp : Format.formatter -> t -> unit
