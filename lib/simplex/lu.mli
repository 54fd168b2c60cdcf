(** Sparse LU factorization of a simplex basis.

    The factor has two parts.  The {e permutation part} holds the
    isolated unit blocks: basis columns with one nonzero on a row that
    no other basis column touches — every logical whose row holds no
    basic structural, and any structural singleton alike.  They are
    peeled off first and stored as flat arrays (row, slot, pivot value),
    with no per-block record.  The all-logical crash basis is all
    permutation part.

    The {e kernel} is every other column, over the rows the peel left.
    It is factored by Gaussian elimination in elimination form: at each
    step a pivot is chosen by a Markowitz-style rule — among the
    sparsest active columns, the entry minimizing
    [(row_count - 1) * (col_count - 1)] subject to a threshold
    partial-pivoting test (|entry| >= tau * max |entry in column|,
    tau = 0.1) — and the multipliers are recorded as an eta sequence
    (the L factor) while the pivot rows form the U factor.  Only
    isolated blocks are peeled: a unit column whose row holds another
    basis nonzero stays in the kernel.

    Solves are the standard pair used by the revised simplex:
    FTRAN [B x = b] (apply L etas forward, back-substitute U) and BTRAN
    [B^T y = c] (forward-substitute U^T by scattering pivot rows, apply
    L^T etas in reverse).  The permutation part costs one division per
    block in one flat pass; the kernel loops run over kernel steps
    only.  Peeled rows and columns never meet a kernel L or U entry, so
    every component is computed by the same float operations as a
    Markowitz elimination of the kernel alone. *)

type t

exception Singular
(** Raised by {!factor} when a column is empty, when a peeled block's
    pivot is not above the absolute tolerance, or when some kernel
    elimination step finds no pivot above it — the basis matrix is
    (numerically) rank deficient.  Two unit columns on one row are not
    peeled; the kernel finds them singular. *)

val factor : m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m col] factors the [m x m] basis whose column for basis slot
    [k] is enumerated by [col k f] (calling [f row value] per nonzero).
    Column slots index the caller's basis array; rows are constraint-row
    indices. *)

val ftran : t -> b:float array -> x:float array -> unit
(** Solve [B x = b]: [b] (length m, row space) is left untouched, [x]
    (length m, basis-slot space) is overwritten with the solution. *)

val btran : t -> c:float array -> y:float array -> unit
(** Solve [B^T y = c]: [c] (length m, basis-slot space) is left
    untouched, [y] (length m, row space) is overwritten. *)

val nnz : t -> int
(** Stored nonzeros in L + U, counting one (the pivot) per peeled block
    and, per kernel step, its multipliers, its U row and its pivot: an
    all-unit basis of order [m] reports [m].  The revised simplex paces
    refactorization on this count. *)
