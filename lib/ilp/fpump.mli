(** Primal heuristics on the solver's persistent root LP.

    Both entry points borrow an already-built {!Simplex.Revised}
    instance holding the model's rows (plus any cuts): the feasibility
    pump swaps rounding-distance objectives in and out with
    [set_objective], the dive pins fractional variables with
    [set_bounds].  Warm re-solves make each inner iteration a handful of
    pivots.  Callers should [reoptimize] afterwards before reading LP
    bounds, since the basis is left at the heuristic's last iterate.
    Both stop early once [deadline] (wall clock) passes or [cancel]
    returns true, polled once per round or dive step. *)

val pump :
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  lp:Simplex.Revised.t ->
  Model.t ->
  (bool array * float) option * int
(** LP-round-project loop with seeded restart perturbation on cycles
    (deterministic, from a fixed seed; at most 40 rounds).  Returns the
    first feasible 0-1 point found with its objective value, plus the
    number of rounds used.  The model's true objective is restored on
    the LP before returning. *)

val dive :
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  lp:Simplex.Revised.t ->
  base_bounds:(float * float) array ->
  Model.t ->
  (bool array * float) option
(** Objective-driven dive: repeatedly pin the most fractional variable
    of the true-objective LP to its nearest bound (retrying the opposite
    bound once when a pin makes the LP infeasible), at most 400 pins
    deep.  [base_bounds] are
    restored before returning.  Produces incumbents biased toward the
    LP optimum rather than mere feasibility. *)

val feasible : Model.t -> bool array -> bool
(** Row-by-row feasibility of a 0-1 point (small tolerance). *)

val objective_value : Model.t -> bool array -> float
