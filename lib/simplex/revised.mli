(** Sparse revised simplex over a CSC/CSR constraint matrix.

    The engine keeps the basis as an LU factorization ({!Lu}) extended by
    a product-form eta file: each pivot appends one sparse eta column and
    the factorization is rebuilt when the eta file grows past its limit
    or a pivot looks numerically unstable.  Pricing is Devex-style
    (incrementally maintained reference weights) with partial pricing in
    cyclic blocks; the ratio test handles general [lo, up] variable
    bounds with bound flips.

    The per-pivot kernels cost what their nonzeros cost: the entering
    column's FTRAN and the pivot row's BTRAN solve from nonzero lists
    through the eta file and the factor, the pivot row is accumulated
    over rho's nonzero rows, and pricing walks a candidate set of the
    attractive columns.  Each keeps the float operations of the dense
    pass in the same order, and falls back to that pass when its
    previous result was dense (more than m/10 nonzeros for a solve,
    more than n/8 candidates for pricing), so the pivots are the same
    either way.  Feasibility (phase 1) minimizes signed
    bounded artificials, which works from {e any} bound configuration —
    the property the warm-started branch & bound relies on.

    An instance is {e persistent}: {!set_bounds} mutates variable bounds
    in place and {!reoptimize} re-solves with the {b dual simplex} from
    the current basis (a bound change leaves the basis dual-feasible), so
    a branch & bound child node costs a handful of dual pivots instead of
    a from-scratch solve. *)

type sense = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
      (** [solution] covers the structural variables only. *)
  | Infeasible
  | Unbounded
  | Iteration_limit

type t

val matrix : nvars:int -> Csc.row array -> Csc.t
(** [matrix ~nvars rows] is the augmented shape {!create} takes: the
    packed [rows] over [nvars] structural columns, each row followed by
    its slack entry (column [nvars + i]) and its artificial entry
    (column [nvars + m + i]), all [1.0], stored once in CSC + CSR form
    ({!Csc.of_csr}).  The one-shot {!Simplex.solve} and {!add_rows}
    build their matrices here; the ILP solver takes the same shape from
    [Ilp.Model.matrix], which its builder writes directly.  Raises
    [Invalid_argument] on a variable index outside [0, nvars) or a row
    that is not packed. *)

val create :
  a:Csc.t ->
  senses:sense array ->
  rhs:float array ->
  obj:Csc.row ->
  lower:float array ->
  upper:float array ->
  t
(** Build a persistent instance over an augmented matrix [a], from
    {!matrix} or [Ilp.Model.matrix]: [nvars = Array.length lower]
    structural variables with bounds [lower.(j) <= x_j <= upper.(j)]
    (lower bounds must be finite), sparse objective [obj] (minimized),
    and row [i] reading [(a x)_i senses.(i) rhs.(i)].  [a], [senses]
    and [rhs] are taken as they are, read and never written, so a
    caller may share them (the ILP search propagates over the same
    matrix and right-hand sides).  Raises [Invalid_argument] on malformed input
    (lengths that disagree, an objective index outside [0, nvars), or
    an [a] whose columns past [nvars] are not the slack and artificial
    blocks). *)

val set_bounds : t -> int -> float -> float -> unit
(** [set_bounds t j lo up] updates the bounds of structural variable [j].
    Takes effect at the next {!optimize} / {!reoptimize}. *)

val optimize : ?max_iters:int -> t -> outcome
(** Cold solve: signed-artificial phase 1 from the all-logical basis,
    then primal phase 2. *)

val reoptimize :
  ?max_iters:int -> ?deadline:float -> ?point:float array -> t -> outcome
(** Warm solve from the current basis: refactor, restore dual
    feasibility by nonbasic bound reassignment, run the dual simplex to
    primal feasibility (dual unboundedness proves primal infeasibility),
    then finish with primal phase 2.  Falls back to {!optimize}'s cold
    solve when no basis exists or the warm path hits numerical trouble.

    [?deadline] is an absolute [Unix.gettimeofday] instant; the pivot
    loops check it every 256 iterations and return {!Iteration_limit}
    past it.  [?point] supplies a crash point for the cold path (length
    [nvars]): each structural nonbasic starts at the bound nearest its
    value.  When the point satisfies every row — e.g. a known-feasible
    incumbent — no artificial is needed, phase 1 is skipped, and phase 2
    starts at the point's own objective. *)

val has_basis : t -> bool
(** True once the instance holds a warm-startable basis.  This includes
    {e partial} bases: a solve that entered phase 2 but ran out of
    iterations or time still leaves a basis the next {!reoptimize} can
    resume from, so capped solves make monotone progress across calls. *)

val set_objective : t -> Csc.row -> unit
(** Replace the objective over the structural variables (entries not
    listed become zero).  Takes effect at the next {!reoptimize}, which
    repairs dual feasibility for the new costs; the basis is kept.  Used
    by the feasibility pump to alternate between the true objective and
    rounding-distance objectives on one factorized instance.  Raises
    [Invalid_argument] on an index outside [0, nvars), before changing
    anything. *)

val add_rows : t -> (Csc.row * sense * float) array -> t
(** [add_rows t extra] returns a {b new} instance whose matrix is [t]'s
    rows followed by [extra] (same structural variables, current bounds
    and objective), carrying [t]'s basis across: structural and slack
    columns keep their indices, artificials shift, and each new row's
    slack enters the basis.  If the new rows are violated cuts, the
    carried basis is dual feasible and {!reoptimize} re-establishes
    optimality with a short dual-simplex run.  [t] itself is unchanged
    (and still usable). *)
