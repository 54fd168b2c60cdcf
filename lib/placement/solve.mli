(** End-to-end placement pipeline — the paper's Fig. 4 flow chart.

    Stages: redundancy removal on every policy; optional merge
    planning (group discovery + cycle breaking); layout construction
    (dependency graph, path slicing); then one of the solving engines,
    greedily warm-started when possible; finally decoding into a
    {!Solution}.

    The ILP is the one optimizing path: a sequential branch and bound
    ({!Ilp.Solver.solve}).  The SAT engines stay as the paper's deferred
    satisfiability formulation and an independent cross-check.

    All stage timings are reported, in wall-clock seconds, so the
    scalability experiments can attribute cost. *)

type engine =
  | Ilp_engine  (** optimizing branch & bound (default) *)
  | Sat_engine  (** feasibility only, fastest *)
  | Sat_opt_engine
      (** optimizing via incremental SAT cardinality descent
          ({!Sat_encode.minimize}) — an independent cross-check of the
          ILP optimum *)

type options = {
  merge : bool;  (** default false *)
  slice : bool;  (** default false *)
  monitors : (int * Ternary.Field.t) list;
      (** monitoring constraints (default none): DROPs overlapping a
          monitored region may not sit upstream of the monitor switch *)
  objective : Encode.objective;  (** default [Total_rules] *)
  engine : engine;  (** default [Ilp_engine] *)
  ilp_config : Ilp.Solver.config;
  sat_conflict_limit : int option;
}

val default_options : options

val options :
  ?merge:bool ->
  ?slice:bool ->
  ?monitors:(int * Ternary.Field.t) list ->
  ?objective:Encode.objective ->
  ?engine:engine ->
  ?ilp_config:Ilp.Solver.config ->
  ?sat_conflict_limit:int ->
  ?jobs:int ->
  unit ->
  options
(** {!default_options} with the given fields replaced.

    [jobs] stores nothing: the branch and bound is sequential, and any
    value other than 1 raises [Invalid_argument].  It stays only because
    the committed benchmark's [place_paper] workload passes [~jobs:1],
    and goes when that benchmark next changes. *)

type timing = { solve_s : float; total_s : float }

type report = {
  status : Encode.status;
  solution : Solution.t option;
  instance : Instance.t;
      (** post-transform instance (redundancy-cleaned, renumbered, with
          merge dummies) — the one the solution refers to *)
  layout : Layout.t;
  ilp_stats : Ilp.Solver.stats option;
  sat_conflicts : int option;
  timing : timing;
}

val run :
  ?options:options ->
  ?deadline:float ->
  Instance.t ->
  report
(** [deadline] is an absolute wall-clock instant (same scale as
    [Unix.gettimeofday]); past it every engine stops cooperatively and
    reports its best incumbent ([`Feasible]) or [`Unknown].  The ILP
    time limit is clamped to the remaining budget so neither bound can
    outlive the other.  The deadline bounds the merge warm start's
    plain solve as well as the main one.  It defaults to unbounded.

    The ILP engine's [ilp_config.time_limit] bounds the run's ILP work
    as a whole: the warm start's solves (the plain-model solve under
    [merge], the SAT probe) spend from the same budget and stop once it
    is spent, and the main solve gets only what remains of it. *)

val pp_report : Format.formatter -> report -> unit
