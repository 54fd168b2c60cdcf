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
    L^T etas in reverse).  Each takes its input's nonzero list and
    reports the entries it sets nonzero, so the permutation part costs
    one division per listed input entry that sits on a peeled block — a
    hypersparse solve on a crash basis touches only its nonzeros — and
    the kernel loops run over kernel steps only.  A caller wanting the
    full solve lists every index.  Peeled rows and columns never meet a
    kernel L or U entry, so every component is computed by the same
    float operations as a Markowitz elimination of the kernel alone,
    whichever indices are listed. *)

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

val ftran :
  t -> b:float array -> rows:int array -> int -> x:float array ->
  slots:int array -> int
(** [ftran t ~b ~rows nr ~x ~slots] solves [B x = b] for a [b] (length
    m, row space, left untouched) that is zero outside the [nr] distinct
    rows [rows.(0 .. nr - 1)].  It writes [x] (length m, basis-slot
    space) at the slot of each listed row's peeled block and at every
    kernel slot, reports in [slots] each slot it sets nonzero (once),
    and returns their count.  Every other component of the solution is
    zero; a slot it does not write keeps its value, so a caller that
    lists only [b]'s nonzeros keeps [x] zero outside the last reported
    list.  Listing every row writes all of [x]. *)

val btran :
  t -> c:float array -> slots:int array -> int -> y:float array ->
  rows:int array -> int
(** [btran t ~c ~slots ns ~y ~rows] solves [B^T y = c] for a [c]
    (length m, basis-slot space, left untouched) that is zero outside
    the [ns] distinct slots [slots.(0 .. ns - 1)], in the same way:
    [y] (length m, row space) is written at each listed slot's peeled
    row and every kernel row, and [rows] receives each row set
    nonzero. *)

val nnz : t -> int
(** Stored nonzeros in L + U, counting one (the pivot) per peeled block
    and, per kernel step, its multipliers, its U row and its pivot: an
    all-unit basis of order [m] reports [m].  The revised simplex paces
    refactorization on this count. *)
