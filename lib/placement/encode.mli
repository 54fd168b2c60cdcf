(** ILP encoding of a placement layout (the paper's Section IV-A).

    Constraint mapping:
    - rule dependency (Eq. 1): one implication row per (drop, dependent
      permit, switch);
    - path coverage (Eq. 2, per-path as the text requires): one >= 1 row
      per (path, relevant drop);
    - switch capacity (Eq. 3): one <= C_k row per switch that can bind,
      with merged members contributing [v - v_m] and the merged entry one
      slot (Section IV-B);
    - merged-variable definition (Eqs. 4-5): two rows per merged var.

    Objectives (Section IV-A4):
    - [Total_rules]: minimize installed TCAM entries;
    - [Upstream_drops]: minimize traffic-weighted placement, each entry
      costing [1 + loc(s, P_i)] so drops move toward the ingress.

    Model variable [v] is layout variable [v]; the pinned policies,
    which have no variables (see {!Layout}), cost the encoding's
    [constant]. *)

type objective =
  | Total_rules
  | Upstream_drops
  | Switch_weighted of float array
      (** per-switch placement cost (the paper's "weighted placement to
          favor certain switches"), one per switch of the instance.
          Every weight must be finite and [>= 0]: holding a pinned
          policy at its [k0] alone is optimal only for non-negative
          costs.  Encoding or scoring
          under an array of another length or any other weight raises
          [Invalid_argument]. *)

val valid_weight : float -> bool
(** Finite and [>= 0]. *)

type status = [ `Optimal | `Feasible | `Infeasible | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  ilp_stats : Ilp.Solver.stats;
}

type encoding = {
  model : Ilp.Model.t;
  constant : float;
      (** objective of the pinned policies' rules: a layout
          assignment's objective is the model's plus [constant] *)
}

val to_model : ?objective:objective -> Layout.t -> encoding
(** Writes the layout's rows straight into the model's matrix
    ({!Ilp.Model.matrix}), in the order implications, monitor fixes,
    covers, capacities, merge definitions: it counts rows and entries
    first, so the model's buffers are exactly sized and become the
    solver's matrix with no copy, then writes each row term by term
    ({!Ilp.Model.term}) and closes it in its own sense
    ({!Ilp.Model.end_row}). *)

val counting_bound : objective -> Layout.t -> int option
(** The paper's A ([Layout.baseline_rule_count]): a lower bound on the
    objective of every feasible layout assignment, pinned rules
    included, given
    only for [Total_rules] with an empty merge plan (with merging a
    placement can use fewer entries than A). *)

val feasible : Layout.t -> bool array -> bool
(** Whether a layout assignment satisfies every row {!to_model} writes,
    read off the layout itself: implications and covers (through
    {!Layout.iter_implications} and {!Layout.iter_covers}, in place,
    stopping at the first broken row), monitor fixes, capacities and
    merge definitions.  It agrees with
    {!Ilp.Solver.check_feasible} on the same assignment. *)

val solve :
  ?objective:objective ->
  ?config:Ilp.Solver.config ->
  ?cancel:(unit -> bool) ->
  ?warm_start:bool array ->
  Layout.t ->
  result
(** [warm_start] is indexed by layout variables.  Under a
    {!counting_bound} A, a warm start that is {!feasible} and places at
    most A entries, pinned rules included, settles the solve: it is
    returned as [`Optimal] with 0 nodes, 0 LP calls and A as the root
    bound, and no model is written (no [solve.encode] or [ilp.setup]
    span); [sdnplace_ilp_count_settled_total] counts these.  Otherwise
    the layout is encoded ({!to_model}) and the solver given the warm
    start and A less the encoding's constant to seed its root bound.
    The solution's objective and [root_bound] include the encoding's
    constant.
    [cancel] stops the search cooperatively. *)

val assignment_objective : ?objective:objective -> Layout.t -> bool array -> float
(** Objective value of an arbitrary layout assignment, the pinned
    rules' cost included (used to score greedy/SAT solutions
    consistently). *)

val pp_status : Format.formatter -> status -> unit
