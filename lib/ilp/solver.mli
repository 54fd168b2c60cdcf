(** Exact 0-1 ILP solving by propagation-guided branch and bound.

    The search is exhaustive — like the paper's CPLEX runs it returns
    either a proven optimum or a proof of infeasibility (our encoding is
    "precise": no false negatives) — unless a node or time limit stops it
    early, in which case the best incumbent (if any) is returned.

    Machinery, in the order it earns its keep on placement instances:

    - {b unit-style propagation} over activity bounds: fixing a DROP
      placement immediately forces its dependent PERMITs, capacity rows fix
      variables to 0 as they fill, covering rows fix the last candidate
      switch to 1;
    - {b covering-aware lower bounds}: unsatisfied disjoint covering rows
      each demand their cheapest remaining variables — this mirrors "every
      un-placed DROP rule costs at least one more slot";
    - {b a counting bound} from the caller ([?lower_bound]) seeds the
      root bound the LP can only raise; placement passes the paper's A
      here only after its warm start failed to meet A, since one that
      meets it settles the placement before any model is written
      ([Placement.Encode.solve]);
    - {b one matrix}: propagation and the LP both work on the model's
      own [<=]-normalized matrix ({!Model.matrix}) and right-hand
      sides, built once per model and never copied;
    - {b LP relaxation bounds} at the root and at shallow nodes, on one
      persistent sparse revised-simplex instance per search that each
      node re-solves with the dual simplex from its parent's basis; an
      integral LP optimum short-circuits the search, which is why
      under-constrained instances return quickly (the effect the paper
      observes with CPLEX);
    - {b branching} on the tightest unsatisfied covering row, most-covering
      variable first, value 1 first. *)

type solution = { values : bool array; objective : float }

type outcome =
  | Optimal of solution  (** proven optimal *)
  | Feasible of solution  (** limit hit; best incumbent, optimality unknown *)
  | Infeasible  (** proven: no assignment satisfies the constraints *)
  | Unknown  (** limit hit before any incumbent was found *)

type config = {
  time_limit : float;
      (** wall-clock seconds from the start of the solve; [infinity]
          disables *)
  node_limit : int;
      (** branch-and-bound nodes the search may expand; a search that
          reaches the limit stops on node [node_limit + 1] *)
  lp_root : bool;  (** solve the root LP relaxation *)
  lp_depth : int;  (** also solve LP bounds at nodes of depth <= this *)
  cuts : bool;
      (** separate cover/pigeonhole cutting planes at the root (at most
          4 rounds) and keep them in the LP for the whole tree *)
  fpump : bool;
      (** run the feasibility pump and an objective dive at the root for
          strong incumbents *)
}

val default_config : config
(** 60 s, 2M nodes, root LP plus LP to depth 2, cuts and feasibility
    pump enabled. *)

type stats = {
  nodes : int;
  lp_calls : int;
  elapsed : float;  (** wall-clock seconds *)
  root_bound : float;
      (** best lower bound proven at the root: the LP or counting bound,
          whichever is larger *)
}

val solve :
  ?config:config ->
  ?cancel:(unit -> bool) ->
  ?warm_start:bool array ->
  ?lower_bound:float ->
  Model.t ->
  outcome * stats
(** [warm_start] seeds the incumbent if it satisfies every constraint
    (silently ignored otherwise).

    [lower_bound] (default [neg_infinity]) must be at most the objective
    of every feasible point.  It is the root bound's starting value,
    which each LP stage can only raise; like the LP bound it is rounded
    up when every objective coefficient is an integer, so an incumbent
    that meets it ends the solve at the root, with no branching.

    [cancel] is polled every 256 nodes, before the root LP and between
    root cut rounds, pump rounds and dive steps; once it returns true
    the search stops cooperatively and reports its best incumbent
    ([Feasible]) or [Unknown] — the hook that lets a deadline or a
    superseded runtime event stop a solve.

    A model with no variables is decided by its constant rows alone:
    [Optimal] when each holds, else [Infeasible], with no node and no
    LP. *)

val check_feasible : Model.t -> bool array -> bool
(** Exact 0-1 feasibility check of an assignment against every row, each
    read from {!Model.matrix} in the sense it was added with. *)

val objective_value : Model.t -> bool array -> float
