type objective =
  | Total_rules
  | Upstream_drops
  | Switch_weighted of float array

type status = [ `Optimal | `Feasible | `Infeasible | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  ilp_stats : Ilp.Solver.stats;
}

let m_count_settled =
  Telemetry.Metrics.counter
    ~help:"placements whose warm start met the paper's counting bound"
    "sdnplace_ilp_count_settled_total"

let pp_status fmt = function
  | `Optimal -> Format.pp_print_string fmt "optimal"
  | `Feasible -> Format.pp_print_string fmt "feasible"
  | `Infeasible -> Format.pp_print_string fmt "infeasible"
  | `Unknown -> Format.pp_print_string fmt "unknown"

let valid_weight w = Float.is_finite w && w >= 0.0

(* Objective coefficient of each layout variable.  Merged variables get
   the correction term that makes an active merge count as exactly one
   entry (or one max-weight entry for the upstream objective). *)
let coefficients objective (layout : Layout.t) =
  (match objective with
  | Switch_weighted w
    when Array.length w
         <> Topo.Net.num_switches layout.Layout.instance.Instance.net ->
    invalid_arg "Encode: switch weights need one entry per switch"
  | Switch_weighted w when not (Array.for_all valid_weight w) ->
    invalid_arg "Encode: switch weights must be finite and >= 0"
  | Total_rules | Upstream_drops | Switch_weighted _ -> ());
  let coef =
    match objective with
    | Total_rules -> Array.make (Layout.num_vars layout) 1.0
    | Upstream_drops | Switch_weighted _ ->
      Array.init (Layout.num_vars layout) (fun v ->
          match (Layout.key layout v, objective) with
          | Layout.Merged _, _ | _, Total_rules -> 0.0
          | Layout.Place { hops; _ }, Upstream_drops -> 1.0 +. float_of_int hops
          | Layout.Place { switch; _ }, Switch_weighted w -> w.(switch))
  in
  List.iter
    (fun (mv, members) ->
      match objective with
      | Total_rules -> coef.(mv) <- 1.0 -. float_of_int (List.length members)
      | Upstream_drops ->
        (* A merged entry weighs as its heaviest member. *)
        let ws = List.map (Array.get coef) members in
        coef.(mv) <-
          List.fold_left Float.max 1.0 ws -. List.fold_left ( +. ) 0.0 ws
      | Switch_weighted w ->
        (* A merged entry still occupies one slot at its switch. *)
        let k =
          match Layout.key layout mv with
          | Layout.Merged { switch; _ } -> switch
          | Layout.Place _ -> assert false
        in
        coef.(mv) <- w.(k) *. (1.0 -. float_of_int (List.length members)))
    layout.Layout.merge_defs;
  coef

(* The cost of the pinned policies' rules, added rule by rule in
   ingress order.  Each sits at its ingress switch [k0], 0 hops from
   the ingress, so it weighs 1 under the upstream objective. *)
let pinned_cost objective (layout : Layout.t) =
  List.fold_left
    (fun acc (_, k0, n) ->
      let c =
        match objective with
        | Total_rules | Upstream_drops -> 1.0
        | Switch_weighted w -> w.(k0)
      in
      List.fold_left ( +. ) acc (List.init n (Fun.const c)))
    0.0 layout.Layout.pinned

let assignment_objective ?(objective = Total_rules) layout assignment =
  let coef = coefficients objective layout in
  let total = ref 0.0 in
  Array.iteri (fun v c -> if assignment.(v) then total := !total +. c) coef;
  !total +. pinned_cost objective layout

type encoding = { model : Ilp.Model.t; constant : float }

(* The rows go straight into the model's matrix buffers, sized first
   so they never grow: one term at a time, each row closed in its own
   sense (the model stores a >= row negated and an = row as its two <=
   halves). *)
let to_model ?(objective = Total_rules) (layout : Layout.t) =
  let coef = coefficients objective layout in
  let len = List.length and sum f = List.fold_left (fun n x -> n + f x) 0 in
  let { Layout.implication_rows; capacities; merge_defs; _ } = layout in
  let fixes = layout.Layout.forbidden in
  let rows =
    implication_rows + (2 * len fixes) + layout.Layout.cover_rows
    + len capacities
    + sum (fun (_, ms) -> 1 + len ms) merge_defs
  and terms =
    (2 * implication_rows) + (2 * len fixes) + layout.Layout.cover_terms
    + sum
        (fun (c : Layout.capacity) ->
          len c.plain + sum (fun (_, ms) -> 1 + len ms) c.grouped)
        capacities
    + sum (fun (_, ms) -> 1 + (3 * len ms)) merge_defs
  in
  let model = Ilp.Model.create ~rows ~entries:(terms + (2 * rows)) () in
  (* Model variable [v] is layout variable [v]. *)
  Array.iter (fun _ -> ignore (Ilp.Model.binary model)) coef;
  let term c v = Ilp.Model.term model v c in
  let row = Ilp.Model.end_row model in
  let implies a b =
    term 1.0 a;
    term (-1.0) b;
    row Le 0.0
  in
  Layout.iter_implications layout implies;
  List.iter
    (fun v ->
      term 1.0 v;
      row Eq 0.0)
    fixes;
  Layout.iter_covers layout (fun off js ->
      Array.iter (fun j -> term 1.0 (off + j)) js;
      row Ge 1.0);
  List.iter
    (fun (cap : Layout.capacity) ->
      List.iter (term 1.0) cap.Layout.plain;
      List.iter
        (fun (mv, members) ->
          term (1.0 -. float_of_int (List.length members)) mv;
          List.iter (term 1.0) members)
        cap.Layout.grouped;
      row Le (float_of_int cap.Layout.bound))
    capacities;
  List.iter
    (fun (mv, members) ->
      (* Eq. 4: v_m >= sum v - (M - 1). *)
      term 1.0 mv;
      List.iter (term (-1.0)) members;
      row Ge (1.0 -. float_of_int (List.length members));
      (* Eq. 5 of the paper is v_m <= (1/M) sum v; over binaries that is
         equivalent to v_m <= v for every member, and the per-member form
         has a much tighter LP relaxation (v_m is bounded by the minimum
         member rather than their average), which keeps merged models as
         easy for branch-and-bound as plain ones. *)
      List.iter (implies mv) members)
    merge_defs;
  (* Packing drops the zero coefficients. *)
  Ilp.Model.set_objective_row model
    { Simplex.Csc.idx = Array.init (Array.length coef) Fun.id; coef };
  { model; constant = pinned_cost objective layout }

(* The paper's A bounds the entries of every placement when each costs
   one and nothing merges.  [Instance.make] gives every ingress a path,
   so each coverage drop has a cover row, and each permit A counts is
   forced by an implication row from such a drop: every rule A counts
   is installed somewhere, each as its own unit-cost variable.  A
   pinned policy's rules count once each, at its [k0].  Merging
   can place fewer entries than A, and other objectives do not count
   entries. *)
let counting_bound objective (layout : Layout.t) =
  match objective with
  | Total_rules when layout.Layout.plan.Merge.groups = [] ->
    Some layout.Layout.baseline_rule_count
  | Total_rules | Upstream_drops | Switch_weighted _ -> None

(* Whether every implication row holds; stops at the first that does
   not. *)
let implied layout a =
  match
    Layout.iter_implications layout (fun d p ->
        if a.(d) && not a.(p) then raise_notrace Exit)
  with
  | () -> true
  | exception Exit -> false

(* Whether every cover row has a set variable; stops at the first that
   has none. *)
let covered layout a =
  let rec hit off js x =
    x < Array.length js && (a.(off + js.(x)) || hit off js (x + 1))
  in
  match
    Layout.iter_covers layout (fun off js ->
        if not (hit off js 0) then raise_notrace Exit)
  with
  | () -> true
  | exception Exit -> false

(* Every row [to_model] writes, read off the layout itself. *)
let feasible (layout : Layout.t) a =
  let set = List.fold_left (fun n v -> if a.(v) then n + 1 else n) 0 in
  implied layout a
  && List.for_all (fun v -> not a.(v)) layout.Layout.forbidden
  && covered layout a
  && List.for_all
       (fun (c : Layout.capacity) ->
         List.fold_left
           (fun n (mv, ms) ->
             n + set ms - if a.(mv) then List.length ms - 1 else 0)
           (set c.Layout.plain) c.Layout.grouped
         <= c.Layout.bound)
       layout.Layout.capacities
  && List.for_all
       (fun (mv, ms) -> a.(mv) = (set ms = List.length ms))
       layout.Layout.merge_defs

(* A warm start that meets {!counting_bound} is optimal.  Under that
   bound every variable is a unit-cost placement, so its objective is
   the count of set variables plus the pinned rules. *)
let settle objective layout warm_start =
  match (counting_bound objective layout, warm_start) with
  | Some bound, Some a ->
    let count =
      Array.fold_left
        (fun n x -> if x then n + 1 else n)
        (Layout.pinned_rules layout) a
    in
    if count <= bound && feasible layout a then Some (a, count, bound)
    else None
  | _ -> None

let solve ?(objective = Total_rules) ?config ?cancel ?warm_start
    (layout : Layout.t) =
  let wall0 = Unix.gettimeofday () in
  match settle objective layout warm_start with
  | Some (a, count, bound) ->
    Telemetry.Metrics.incr m_count_settled;
    {
      status = `Optimal;
      solution =
        Some (Solution.of_assignment layout a ~objective:(float_of_int count));
      ilp_stats =
        {
          Ilp.Solver.nodes = 0;
          lp_calls = 0;
          elapsed = Unix.gettimeofday () -. wall0;
          root_bound = float_of_int bound;
        };
    }
  | None ->
    let enc =
      Telemetry.Trace.with_span "solve.encode" @@ fun () ->
      to_model ~objective layout
    in
    let outcome, stats =
      Ilp.Solver.solve ?config ?cancel
        ?warm_start
        ?lower_bound:
          (Option.map
             (fun a -> float_of_int a -. enc.constant)
             (counting_bound objective layout))
        enc.model
    in
    let solution_of (s : Ilp.Solver.solution) =
      Solution.of_assignment layout s.Ilp.Solver.values
        ~objective:(s.Ilp.Solver.objective +. enc.constant)
    in
    let status, solution =
      match outcome with
      | Ilp.Solver.Optimal s -> (`Optimal, Some (solution_of s))
      | Ilp.Solver.Feasible s -> (`Feasible, Some (solution_of s))
      | Ilp.Solver.Infeasible -> (`Infeasible, None)
      | Ilp.Solver.Unknown -> (`Unknown, None)
    in
    {
      status;
      solution;
      ilp_stats =
        {
          stats with
          Ilp.Solver.root_bound = stats.Ilp.Solver.root_bound +. enc.constant;
        };
    }
