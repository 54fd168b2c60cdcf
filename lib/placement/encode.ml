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

let valid_weight w = Float.is_finite w && w >= 0.0

(* Objective coefficient of each layout variable.  Merged variables get
   the correction term that makes an active merge count as exactly one
   entry (or one max-weight entry for the upstream objective). *)
let coefficients objective (layout : Layout.t) =
  (match objective with
  | Switch_weighted w when not (Array.for_all valid_weight w) ->
    invalid_arg "Encode: switch weights must be finite and >= 0"
  | Total_rules | Upstream_drops | Switch_weighted _ -> ());
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

type encoding = { model : Ilp.Model.t; vars : int array; constant : float }

let to_model ?(objective = Total_rules) (layout : Layout.t) =
  let coef = coefficients objective layout in
  let model = Ilp.Model.create () in
  (* One model variable per free layout variable, in layout order; the
     pinned ones fold into the constant. *)
  let constant = ref 0.0 in
  let vars =
    Array.mapi
      (fun v (pin : Layout.pin) ->
        match pin with
        | Layout.Free -> (Ilp.Model.binary model :> int)
        | Layout.One ->
          constant := !constant +. coef.(v);
          -1
        | Layout.Zero -> -1)
      layout.Layout.pins
  in
  let x v = Ilp.Model.var_of_int model vars.(v) in
  List.iter
    (fun (vd, vp) -> Ilp.Model.implies model (x vd) (x vp))
    layout.Layout.implications;
  List.iter
    (fun v -> if vars.(v) >= 0 then Ilp.Model.fix model (x v) false)
    layout.Layout.forbidden;
  List.iter
    (fun cover ->
      Ilp.Model.add_ge model
        (List.map (fun v -> (1.0, x v)) cover)
        1.0)
    layout.Layout.covers;
  List.iter
    (fun (cap : Layout.capacity) ->
      let terms =
        List.map (fun v -> (1.0, x v)) cap.Layout.plain
        @ List.concat_map
            (fun (mv, members) ->
              (1.0 -. float_of_int (List.length members), x mv)
              :: List.map (fun v -> (1.0, x v)) members)
            cap.Layout.grouped
      in
      Ilp.Model.add_le model terms
        (float_of_int cap.Layout.bound))
    layout.Layout.capacities;
  List.iter
    (fun (mv, members) ->
      let m = float_of_int (List.length members) in
      (* Eq. 4: v_m >= sum v - (M - 1). *)
      Ilp.Model.add_ge model
        ((1.0, x mv) :: List.map (fun v -> (-1.0, x v)) members)
        (1.0 -. m);
      (* Eq. 5 of the paper is v_m <= (1/M) sum v; over binaries that is
         equivalent to v_m <= v for every member, and the per-member form
         has a much tighter LP relaxation (v_m is bounded by the minimum
         member rather than their average), which keeps merged models as
         easy for branch-and-bound as plain ones. *)
      List.iter (fun v -> Ilp.Model.implies model (x mv) (x v)) members)
    layout.Layout.merge_defs;
  let terms = ref [] in
  for v = Array.length coef - 1 downto 0 do
    if vars.(v) >= 0 && coef.(v) <> 0.0 then terms := (coef.(v), x v) :: !terms
  done;
  Ilp.Model.set_objective model !terms;
  { model; vars; constant = !constant }

(* A model point as a layout assignment, pins filled in. *)
let lift (layout : Layout.t) enc values =
  Array.mapi
    (fun v (pin : Layout.pin) ->
      match pin with
      | Layout.Free -> values.(enc.vars.(v))
      | Layout.One -> true
      | Layout.Zero -> false)
    layout.Layout.pins

let project enc assignment =
  let point = Array.make (Ilp.Model.num_vars enc.model) false in
  Array.iteri (fun v x -> if x >= 0 then point.(x) <- assignment.(v)) enc.vars;
  point

let solve ?(objective = Total_rules) ?config ?cancel ?warm_start
    (layout : Layout.t) =
  let enc =
    Telemetry.Trace.with_span "solve.encode" @@ fun () ->
    to_model ~objective layout
  in
  let outcome, stats =
    Ilp.Solver.solve ?config ?cancel
      ?warm_start:(Option.map (project enc) warm_start)
      enc.model
  in
  let solution_of (s : Ilp.Solver.solution) =
    Solution.of_assignment layout
      (lift layout enc s.Ilp.Solver.values)
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
    model_vars = Ilp.Model.num_vars enc.model;
    model_rows = Ilp.Model.num_rows enc.model;
  }
