(** 0-1 integer linear programming models.

    A model is a set of binary variables, linear constraints and a linear
    objective to minimize.  This is exactly the fragment the paper's
    encodings need (Section IV-A: binary placement variables, implication,
    covering and capacity constraints, rule-count objectives), so the
    solver exploits it: every variable is 0/1, no general integers. *)

type t

type var = private int
(** Variable handle; also usable as an index into solution arrays. *)

val create : ?rows:int -> ?entries:int -> unit -> t
(** An empty model whose matrix buffers start with room for [rows] [<=]
    rows (an [Eq] row takes two) and [entries] stored entries (each
    row's terms plus its two unit entries, see {!matrix}).  A builder
    that knows its size, as [Placement.Encode] does, saves the buffers'
    growth; the first {!matrix} takes them as they are. *)

val binary : t -> var
(** Fresh 0-1 variable. *)

val num_vars : t -> int

type sense = Simplex.Revised.sense = Le | Ge | Eq

val add_le : t -> (float * var) list -> float -> unit
(** [add_le m terms b] adds Σ terms <= b.  The terms are packed once,
    here: sorted by variable, a repeated variable's coefficients summed,
    zero terms dropped.  Raises [Invalid_argument], adding no row, on a
    variable that is not of this model.  Rows carry no structural tag:
    the cut separators ({!Cuts}) recognise covers, capacities and
    implications from their coefficients. *)

val add_ge : t -> (float * var) list -> float -> unit

val add_eq : t -> (float * var) list -> float -> unit

val add_row : t -> Simplex.Csc.row -> sense -> float -> unit
(** [add_row m terms sense b] adds a row given as index/coefficient
    arrays over variable indices, packed as {!add_le} packs (the arrays
    are read, not kept).  Raises [Invalid_argument] on an out-of-range
    index or arrays of different lengths. *)

val term : t -> int -> float -> unit
(** [term m j c] writes [c] times variable [j] (an index, as
    [(v :> int)]) into the row being written, which {!end_row} closes
    and checks: the allocation-free form of {!add_le} and its kin, for
    builders that produce rows term by term. *)

val end_row : t -> sense -> float -> unit
(** [end_row m sense b] closes the row being written as
    Σ terms [sense] [b], packed as {!add_le} packs.  Raises
    [Invalid_argument], dropping the row's terms, when one is not a
    variable of this model. *)

val implies : t -> var -> var -> unit
(** [implies m a b]: if [a] = 1 then [b] = 1 (encoded [a - b <= 0]) — the
    paper's rule-dependency constraint shape (Eq. 1). *)

val fix : t -> var -> bool -> unit
(** Pin a variable, e.g. to freeze the untouched part of an incremental
    re-solve (Section IV-E). *)

val set_objective : t -> (float * var) list -> unit
(** Minimization objective; replaces any previous one.  Variables not
    mentioned have coefficient 0. *)

val set_objective_row : t -> Simplex.Csc.row -> unit
(** {!set_objective} from index/coefficient arrays, packed as
    {!add_row} packs (taking ownership of both arrays, see
    {!Simplex.Csc.pack}). *)

val objective : t -> Simplex.Csc.row
(** The packed objective. *)

val activity : Simplex.Csc.row -> bool array -> float
(** [activity terms x] is the sum of the coefficients of [terms] whose
    variable is true in the 0-1 point [x]. *)

val matrix : t -> Simplex.Csc.t
(** The rows as the solver's one constraint matrix, in the augmented
    shape {!Simplex.Revised.create} takes: every row normalized to
    [<=] — an [Le] row as written, a [Ge] row negated, an [Eq] row as
    two rows, as written and then negated — with its packed terms
    followed by its LP slack entry (column [num_vars + i]) and its
    artificial entry (column [num_vars + m + i]), both [1.0].  Built on
    the first call after a change: the CSR is the builder's own buffers
    (copied only if an earlier matrix took them), completed with the
    CSC.  Shared, never copied, by propagation, the LP, the cut
    separators and the feasibility checks; it must not be mutated. *)

val rhs : t -> float array
(** The right-hand sides of {!matrix}'s rows, normalized with them. *)

val iter_rows : t -> (sense -> int -> float -> unit) -> unit
(** [iter_rows m f] calls [f sense i s] for each model row in insertion
    order, with the sense it was added with, its first row [i] of
    {!matrix} ([i + 1] too for an [Eq] row) and the sign [s] that reads
    row [i] as added: each stored coefficient and the rhs times [s]
    ([-1.0] for a [Ge] row, else [1.0]; exact) are the row's own. *)

val pp_stats : Format.formatter -> t -> unit

val lp_relaxation : t -> Simplex.problem
(** The continuous relaxation (each variable relaxed to 0 <= x <= 1,
    rows and objective unchanged): the root LP of a branch and bound. *)

val to_lp_string : t -> string
(** The model in CPLEX LP file format (Minimize / Subject To / Binary /
    End sections) so instances can be exported to external solvers for
    cross-checking or debugging.  Variables are named [x<index>]. *)
