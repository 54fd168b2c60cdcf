(** Linear programming by the primal simplex method.

    Solves   minimize  c·x
             subject to  a_i·x {<=, =, >=} b_i   for each row i
                         0 <= x_j <= u_j          (u_j may be infinite)

    {!solve} is the production engine: a revised simplex over a
    compressed sparse column/row constraint matrix — LU factorization of
    the basis with Markowitz-style pivoting, product-form eta updates
    with periodic refactorization, bounded-variable ratio test and
    Devex-style partial pricing ({!Revised}).  Work per iteration is
    proportional to the nonzeros involved, which is what lets the
    placement LPs scale toward the paper's instance sizes.  The same
    module exposes the {e persistent} API (bound updates + dual-simplex
    reoptimize) used by [Ilp.Solver]'s warm-started
    branch & bound.

    {!solve_dense} is the textbook two-phase dense-tableau simplex with
    upper-bounded variables (Chvátal, ch. 8).  O(rows × columns) storage
    and work per pivot; nothing in production runs it.  It is the
    differential oracle that the test suite and the root-LP benchmark
    compare {!solve} against.

    Both are exact in the floating-point sense (tolerance 1e-7), agree
    on optimal objective values and infeasibility verdicts (the
    differential suite enforces this), and share the anti-cycling rule:
    after a degenerate stall the pivot rule degrades to Bland's rule,
    which terminates finitely. *)

module Csc = Csc
module Lu = Lu
module Revised = Revised

type sense = Revised.sense = Le | Ge | Eq

type row = {
  coeffs : (int * float) list;  (** sparse [(var, coefficient)] terms *)
  sense : sense;
  rhs : float;
}

type problem = {
  num_vars : int;
  minimize : (int * float) list;  (** sparse objective *)
  rows : row list;
  upper : float array;  (** length [num_vars]; [infinity] = unbounded *)
}

type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

val solve : ?max_iters:int -> problem -> status
(** The sparse revised simplex, cold-started.  [max_iters] bounds total
    pivots across both phases (default 50_000).  Raises
    [Invalid_argument] on malformed input (bad indices, negative upper
    bounds, wrong [upper] length). *)

val solve_dense : ?max_iters:int -> problem -> status
(** The dense-tableau reference oracle: same contract as {!solve}, for
    differential tests and benchmarks only. *)

val feasible : problem -> float array -> bool
(** Checks a point against rows and bounds, each within 1e-6; tests use
    it to validate the solvers' answers. *)
