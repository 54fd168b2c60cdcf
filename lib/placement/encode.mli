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
      costing [1 + loc(s, P_i)] so drops move toward the ingress. *)

type objective =
  | Total_rules
  | Upstream_drops
  | Switch_weighted of float array
      (** per-switch placement cost (the paper's "weighted placement to
          favor certain switches"); length = number of switches *)

type status = [ `Optimal | `Feasible | `Infeasible | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  ilp_stats : Ilp.Solver.stats;
  model_vars : int;
  model_rows : int;
}

val to_model : ?objective:objective -> Layout.t -> Ilp.Model.t * Ilp.Model.var array
(** The model plus the layout-index -> model-variable mapping. *)

val solve :
  ?objective:objective ->
  ?config:Ilp.Solver.config ->
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  ?warm_start:bool array ->
  Layout.t ->
  result
(** [warm_start] is indexed by layout variables.  [jobs > 1] runs the
    branch and bound over that many domains (same objective value; see
    {!Ilp.Solver.solve}); [cancel] stops the search cooperatively. *)

val assignment_objective : ?objective:objective -> Layout.t -> bool array -> float
(** Objective value of an arbitrary layout assignment (used to score
    greedy/SAT solutions consistently). *)

val pp_status : Format.formatter -> status -> unit
