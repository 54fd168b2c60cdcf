(** 0-1 integer linear programming models.

    A model is a set of binary variables, linear constraints and a linear
    objective to minimize.  This is exactly the fragment the paper's
    encodings need (Section IV-A: binary placement variables, implication,
    covering and capacity constraints, rule-count objectives), so the
    solver exploits it: every variable is 0/1, no general integers. *)

type t

type var = private int
(** Variable handle; also usable as an index into solution arrays. *)

val create : unit -> t

val binary : t -> var
(** Fresh 0-1 variable. *)

val num_vars : t -> int

type sense = Simplex.Revised.sense = Le | Ge | Eq

val add_le : t -> (float * var) list -> float -> unit
(** [add_le m terms b] adds Σ terms <= b.  The terms are packed once,
    here: sorted by variable, a repeated variable's coefficients summed,
    zero terms dropped.  Raises [Invalid_argument] on a variable that is
    not of this model.  Rows carry no structural tag: the cut
    separators ({!Cuts}) recognise covers, capacities and implications
    from their coefficients. *)

val add_ge : t -> (float * var) list -> float -> unit

val add_eq : t -> (float * var) list -> float -> unit

val add_row : t -> Simplex.Csc.row -> sense -> float -> unit
(** [add_row m terms sense b] adds a row given as index/coefficient
    arrays over variable indices, packing them if they are not packed
    already (taking ownership of both arrays, see {!Simplex.Csc.pack}).
    Raises [Invalid_argument] on an out-of-range index. *)

val implies : t -> var -> var -> unit
(** [implies m a b]: if [a] = 1 then [b] = 1 (encoded [a - b <= 0]) — the
    paper's rule-dependency constraint shape (Eq. 1). *)

val fix : t -> var -> bool -> unit
(** Pin a variable, e.g. to freeze the untouched part of an incremental
    re-solve (Section IV-E). *)

val set_objective : t -> (float * var) list -> unit
(** Minimization objective; replaces any previous one.  Variables not
    mentioned have coefficient 0. *)

val objective : t -> Simplex.Csc.row
(** The packed objective. *)

val activity : Simplex.Csc.row -> bool array -> float
(** [activity terms x] is the sum of the coefficients of [terms] whose
    variable is true in the 0-1 point [x]. *)

type row = { terms : Simplex.Csc.row; sense : sense; rhs : float }
(** A constraint in the one sparse-row format every layer shares: the
    packed terms pass unchanged through {!Solver}, {!Cuts},
    {!Fpump} and into {!Simplex.Revised}. *)

val rows : t -> row array
(** In insertion order (a fresh array; the rows themselves are shared
    and must not be mutated). *)

val num_rows : t -> int

val var_of_int : t -> int -> var
(** Recover a handle from an index (bounds-checked). *)

val pp_stats : Format.formatter -> t -> unit

val lp_relaxation : t -> Simplex.problem
(** The continuous relaxation (each variable relaxed to 0 <= x <= 1,
    rows and objective unchanged): the root LP of a branch and bound. *)

val to_lp_string : t -> string
(** The model in CPLEX LP file format (Minimize / Subject To / Binary /
    End sections) so instances can be exported to external solvers for
    cross-checking or debugging.  Variables are named [x<index>]. *)
