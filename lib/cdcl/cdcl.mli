(** A CDCL SAT solver with native cardinality constraints.

    This is the satisfiability back end for the paper's Section IV-D
    encoding: placement implications and path-coverage constraints are
    plain clauses, and switch-capacity constraints are at-most-k
    cardinality constraints, which the solver propagates natively by
    counting (with lazily synthesized reason clauses), avoiding the
    quadratic CNF blow-up of counter encodings for large TCAMs.

    The architecture is MiniSat-style conflict-driven clause learning:
    two-watched-literal propagation, first-UIP conflict analysis with
    non-chronological backjumping, VSIDS variable activities, phase
    saving, and Luby-sequence restarts.

    Literals use DIMACS conventions: variables are positive integers
    [1..n]; literal [v] is the variable, [-v] its negation. *)

type t

type result =
  | Sat of bool array  (** model indexed by [var - 1] *)
  | Unsat
  | Unknown  (** conflict limit exceeded *)

val create : unit -> t

val new_var : t -> int
(** Allocates the next variable (numbered from 1). *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Disjunction of DIMACS literals.  An empty (or all-falsified root)
    clause makes the instance trivially unsatisfiable.
    Raises [Invalid_argument] on literal 0 or an unallocated variable. *)

val add_at_most : t -> int list -> int -> unit
(** [add_at_most s lits k]: at most [k] of [lits] may be true.  Duplicate
    literals are not supported (raises [Invalid_argument]). *)

val solve : ?conflict_limit:int -> ?cancel:(unit -> bool) -> t -> result
(** Decides the accumulated formula.  The solver may be re-solved after
    adding further constraints (it restarts from the root level).
    [cancel] is polled every 64 search-loop iterations; once it returns
    true the search stops cooperatively with [Unknown] — the hook that
    lets a deadline or a caller's stop signal end a SAT run. *)

val num_conflicts : t -> int
(** Total conflicts across all [solve] calls (search-effort metric
    reported by the benchmarks). *)

val pp_result : Format.formatter -> result -> unit

(** DIMACS CNF interchange: read/write the standard [p cnf] format so
    the solver can be exercised on external instances and the placement
    SAT encodings can be exported to stock solvers. *)
module Dimacs : sig
  type cnf = { num_vars : int; clauses : int list list }

  val parse : string -> cnf
  (** [c] comment lines, a [p cnf <vars> <clauses>] header, clauses
      terminated by [0] (possibly spanning lines).
      Raises [Failure] on malformed input. *)

  val print : cnf -> string

  val load_into : t -> cnf -> unit
  (** Allocates any missing variables, then adds every clause. *)

  val solve_text : string -> result
  (** Parse and decide with a fresh solver. *)
end
