(** Unions of ternary cubes — exact region algebra over packet space.

    A {!Tbv.t} denotes a cube (a sub-hypercube of the bit space); a value
    of this module denotes a finite union of same-width cubes.  Cube
    unions are closed under intersection and subtraction (a cube minus a
    cube splits into at most [width] disjoint cubes), which is enough to
    compute {e exact} first-match semantics of rule lists: the region a
    rule effectively decides is its own cube set minus every
    higher-priority rule's.  This powers the exact (sampling-free)
    placement verifier.

    The representation is a plain list of cubes, not necessarily
    disjoint; all operations are exact on the denoted sets.  Subtraction
    can grow the representation, so it takes a cube budget and raises
    {!Budget_exceeded} beyond it (callers fall back to sampling). *)

type t

exception Budget_exceeded

val empty : int -> t
(** [empty width]: the empty set of that width. *)

val of_tbvs : width:int -> Tbv.t list -> t
(** Raises [Invalid_argument] on width mismatch. *)

val width : t -> int

val cubes : t -> Tbv.t list

val is_empty : t -> bool
(** Exact: the denoted set is empty iff no cubes remain (every cube is
    nonempty). *)

val union : t -> t -> t

val inter : t -> t -> t

val subtract : ?budget:int -> t -> t -> t
(** [subtract a b] is the set difference; result cubes are pairwise
    disjoint from [b].  [budget] (default 100_000) bounds intermediate
    cube counts. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff [b] is contained in [a] (i.e. [b \ a] is empty). *)

val equal : t -> t -> bool
(** Set equality (mutual containment). *)

val choose : t -> Tbv.t option
(** Some cube of the set, if nonempty. *)
