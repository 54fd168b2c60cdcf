type objective =
  | Total_rules
  | Upstream_drops
  | Switch_weighted of float array

type status = [ `Optimal | `Feasible | `Infeasible | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  ilp_stats : Ilp.Solver.stats;
  model_vars : int;
  model_rows : int;
}

let pp_status fmt = function
  | `Optimal -> Format.pp_print_string fmt "optimal"
  | `Feasible -> Format.pp_print_string fmt "feasible"
  | `Infeasible -> Format.pp_print_string fmt "infeasible"
  | `Unknown -> Format.pp_print_string fmt "unknown"

(* Objective coefficient of each layout variable.  Merged variables get
   the correction term that makes an active merge count as exactly one
   entry (or one max-weight entry for the upstream objective). *)
let coefficients objective (layout : Layout.t) =
  let n = Layout.num_vars layout in
  let coef = Array.make n 0.0 in
  Array.iteri
    (fun v key ->
      match key with
      | Layout.Place { switch; _ } ->
        coef.(v) <-
          (match objective with
          | Total_rules -> 1.0
          | Upstream_drops -> layout.Layout.weights.(v)
          | Switch_weighted w -> w.(switch))
      | Layout.Merged _ -> ())
    layout.Layout.keys;
  List.iter
    (fun (mv, members) ->
      match objective with
      | Total_rules -> coef.(mv) <- 1.0 -. float_of_int (List.length members)
      | Upstream_drops ->
        let sum =
          List.fold_left (fun acc v -> acc +. layout.Layout.weights.(v)) 0.0 members
        in
        coef.(mv) <- layout.Layout.weights.(mv) -. sum
      | Switch_weighted w ->
        (* A merged entry still occupies one slot at its switch. *)
        let k =
          match layout.Layout.keys.(mv) with
          | Layout.Merged { switch; _ } -> switch
          | Layout.Place _ -> assert false
        in
        coef.(mv) <- w.(k) *. (1.0 -. float_of_int (List.length members)))
    layout.Layout.merge_defs;
  coef

let assignment_objective ?(objective = Total_rules) layout assignment =
  let coef = coefficients objective layout in
  let total = ref 0.0 in
  Array.iteri (fun v c -> if assignment.(v) then total := !total +. c) coef;
  !total

let to_model ?(objective = Total_rules) (layout : Layout.t) =
  let model = Ilp.Model.create () in
  let vars = Array.map (fun _ -> Ilp.Model.binary model) layout.Layout.keys in
  List.iter
    (fun (vd, vp) -> Ilp.Model.implies model vars.(vd) vars.(vp))
    layout.Layout.implications;
  List.iter
    (fun v -> Ilp.Model.fix model vars.(v) false)
    layout.Layout.forbidden;
  List.iter
    (fun cover ->
      Ilp.Model.add_ge ~kind:Ilp.Model.Cover model
        (List.map (fun v -> (1.0, vars.(v))) cover)
        1.0)
    layout.Layout.covers;
  List.iter
    (fun (cap : Layout.capacity) ->
      let terms =
        List.map (fun v -> (1.0, vars.(v))) cap.Layout.plain
        @ List.concat_map
            (fun (mv, members) ->
              (1.0 -. float_of_int (List.length members), vars.(mv))
              :: List.map (fun v -> (1.0, vars.(v))) members)
            cap.Layout.grouped
      in
      Ilp.Model.add_le ~kind:Ilp.Model.Capacity model terms
        (float_of_int cap.Layout.bound))
    layout.Layout.capacities;
  List.iter
    (fun (mv, members) ->
      let m = float_of_int (List.length members) in
      (* Eq. 4: v_m >= sum v - (M - 1). *)
      Ilp.Model.add_ge ~kind:Ilp.Model.Merge_def model
        ((1.0, vars.(mv)) :: List.map (fun v -> (-1.0, vars.(v))) members)
        (1.0 -. m);
      (* Eq. 5 of the paper is v_m <= (1/M) sum v; over binaries that is
         equivalent to v_m <= v for every member, and the per-member form
         has a much tighter LP relaxation (v_m is bounded by the minimum
         member rather than their average), which keeps merged models as
         easy for branch-and-bound as plain ones. *)
      List.iter
        (fun v -> Ilp.Model.implies model vars.(mv) vars.(v))
        members)
    layout.Layout.merge_defs;
  let coef = coefficients objective layout in
  let terms = ref [] in
  for v = Array.length coef - 1 downto 0 do
    if coef.(v) <> 0.0 then terms := (coef.(v), vars.(v)) :: !terms
  done;
  Ilp.Model.set_objective model !terms;
  (model, vars)

let solve ?(objective = Total_rules) ?config ?jobs ?cancel ?warm_start
    (layout : Layout.t) =
  let model, _vars =
    Telemetry.Trace.with_span "solve.encode" @@ fun () ->
    to_model ~objective layout
  in
  let outcome, stats =
    Ilp.Solver.solve ?config ?jobs ?cancel ?warm_start model
  in
  let solution_of (s : Ilp.Solver.solution) =
    Solution.of_assignment layout s.Ilp.Solver.values ~objective:s.Ilp.Solver.objective
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
    ilp_stats = stats;
    model_vars = Ilp.Model.num_vars model;
    model_rows = Ilp.Model.num_rows model;
  }
