(** Satisfiability encoding of a placement layout (Section IV-D).

    The same layout that feeds the ILP becomes a propositional formula:
    - Eq. 6 (rule dependency): binary clauses [v_drop -> v_permit];
    - Eq. 7 (path coverage): one clause per (path, relevant drop);
    - Eq. 3 (capacity): an at-most-C_k cardinality constraint per switch,
      with merging handled by counting auxiliaries [w = v && not v_m]
      so a fully merged group occupies one slot;
    - Eq. 8 (merging): [v_m <-> AND members];
    - a pinned policy (see {!Layout}): a unit clause per (rule, switch)
      pair, true at [k0], the capacity constraints already net of its
      load.

    No objective — this is the fast feasibility path the paper keeps for
    dynamic updates.  The decoded solution's [objective] field reports the
    installed-entry count for comparison with the ILP. *)

type status = [ `Sat | `Unsat | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  assignment : bool array option;
      (** satisfying assignment over layout variables (for ILP warm
          starts) *)
  conflicts : int;
}

val solve :
  ?conflict_limit:int ->
  ?cancel:(unit -> bool) ->
  Layout.t ->
  result
(** [cancel] stops the CDCL search cooperatively ([`Unknown]) — the
    pipeline passes its deadline and stop hook here. *)

type opt_result = {
  opt_status : [ `Optimal | `Feasible | `Unsat | `Unknown ];
  opt_solution : Solution.t option;
  opt_conflicts : int;
}

val minimize :
  ?conflict_limit:int -> ?cancel:(unit -> bool) -> Layout.t -> opt_result
(** SAT-based minimization of the installed-entry count: one counting
    literal per prospective TCAM entry (plain placements, merged entries,
    and unmerged group members via [w = v && not v_m] auxiliaries), then
    a descending sequence of native at-most-k bounds on a {e single}
    incremental CDCL solver — each round keeps all learnt clauses and
    tightens the cardinality, so the search accelerates as it descends.
    Returns [`Optimal] when the next bound is proven unsatisfiable,
    [`Feasible] with the best model when the conflict budget runs out
    first, [`Unsat] when even the unconstrained formula has no placement.
    Exists to cross-check the ILP optimum with a fully independent
    solver; agreement is tested on random instances. *)
