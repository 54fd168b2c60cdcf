type status = [ `Sat | `Unsat | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  assignment : bool array option;
  conflicts : int;
  pb_vars : int;
  pb_aux : int;
}

let to_pb ?encoding (layout : Layout.t) =
  let pb = Pb.create ?encoding () in
  let vars = Array.map (fun _ -> Pb.fresh pb) layout.Layout.keys in
  List.iter
    (fun (vd, vp) -> Pb.implies pb vars.(vd) vars.(vp))
    layout.Layout.implications;
  List.iter
    (fun v -> Pb.add_clause pb [ -vars.(v) ])
    layout.Layout.forbidden;
  Array.iteri
    (fun v (pin : Layout.pin) ->
      match pin with
      | Layout.Free -> ()
      | Layout.Zero -> Pb.add_clause pb [ -vars.(v) ]
      | Layout.One -> Pb.add_clause pb [ vars.(v) ])
    layout.Layout.pins;
  List.iter
    (fun cover -> Pb.add_clause pb (List.map (fun v -> vars.(v)) cover))
    layout.Layout.covers;
  List.iter
    (fun (mv, members) ->
      Pb.and_eq pb vars.(mv) (List.map (fun v -> vars.(v)) members))
    layout.Layout.merge_defs;
  List.iter
    (fun (cap : Layout.capacity) ->
      let plain = List.map (fun v -> vars.(v)) cap.Layout.plain in
      let grouped =
        List.concat_map
          (fun (mv, members) ->
            (* w_v <-> v && not v_m: a member occupies its own slot only
               when placed unmerged; the merged entry itself counts one. *)
            let ws =
              List.map
                (fun v ->
                  let w = Pb.fresh_aux pb in
                  Pb.add_clause pb [ -w; vars.(v) ];
                  Pb.add_clause pb [ -w; -vars.(mv) ];
                  Pb.add_clause pb [ w; -vars.(v); vars.(mv) ];
                  w)
                members
            in
            vars.(mv) :: ws)
          cap.Layout.grouped
      in
      Pb.at_most pb (plain @ grouped) cap.Layout.bound)
    layout.Layout.capacities;
  (pb, vars)

let solve ?encoding ?conflict_limit ?cancel (layout : Layout.t) =
  let pb, vars = to_pb ?encoding layout in
  match Pb.solve ?conflict_limit ?cancel pb with
  | Cdcl.Sat model ->
    let assignment = Array.map (fun v -> model.(v - 1)) vars in
    let objective =
      Encode.assignment_objective ~objective:Encode.Total_rules layout assignment
    in
    let solution = Solution.of_assignment layout assignment ~objective in
    {
      status = `Sat;
      solution = Some solution;
      assignment = Some assignment;
      conflicts = Pb.num_conflicts pb;
      pb_vars = Pb.num_vars pb;
      pb_aux = Pb.num_aux pb;
    }
  | Cdcl.Unsat ->
    {
      status = `Unsat;
      solution = None;
      assignment = None;
      conflicts = Pb.num_conflicts pb;
      pb_vars = Pb.num_vars pb;
      pb_aux = Pb.num_aux pb;
    }
  | Cdcl.Unknown ->
    {
      status = `Unknown;
      solution = None;
      assignment = None;
      conflicts = Pb.num_conflicts pb;
      pb_vars = Pb.num_vars pb;
      pb_aux = Pb.num_aux pb;
    }

type opt_result = {
  opt_status : [ `Optimal | `Feasible | `Unsat | `Unknown ];
  opt_solution : Solution.t option;
  opt_conflicts : int;
  iterations : int;
}

let minimize ?(conflict_limit = 2_000_000) ?(cancel = fun () -> false)
    (layout : Layout.t) =
  let pb, vars = to_pb layout in
  (* Counting literals: one per prospective entry.  Grouped members are
     counted through w = v && not v_m so an active merge costs exactly
     one (the merged literal itself). *)
  let grouped = Hashtbl.create 64 in
  List.iter
    (fun (mv, members) ->
      Hashtbl.replace grouped mv ();
      List.iter (fun v -> Hashtbl.replace grouped v ()) members)
    layout.Layout.merge_defs;
  let counting = ref [] in
  Array.iteri
    (fun v key ->
      match key with
      | Layout.Place _ when not (Hashtbl.mem grouped v) ->
        counting := vars.(v) :: !counting
      | Layout.Place _ | Layout.Merged _ -> ())
    layout.Layout.keys;
  List.iter
    (fun (mv, members) ->
      counting := vars.(mv) :: !counting;
      List.iter
        (fun v ->
          let w = Pb.fresh_aux pb in
          Pb.add_clause pb [ -w; vars.(v) ];
          Pb.add_clause pb [ -w; -vars.(mv) ];
          Pb.add_clause pb [ w; -vars.(v); vars.(mv) ];
          counting := w :: !counting)
        members)
    layout.Layout.merge_defs;
  let counting = !counting in
  let count_true model =
    List.fold_left
      (fun acc l -> if model.(l - 1) then acc + 1 else acc)
      0 counting
  in
  let decode_assignment assignment =
    let objective =
      Encode.assignment_objective ~objective:Encode.Total_rules layout
        assignment
    in
    Solution.of_assignment layout assignment ~objective
  in
  let decode model =
    decode_assignment (Array.map (fun v -> model.(v - 1)) vars)
  in
  (* Seed the descent from the greedy heuristic: its entry count is an
     upper bound, so the first SAT call already searches strictly below
     it instead of crawling down from an arbitrary first model. *)
  let best = ref None in
  (match Baseline.greedy_assignment layout with
  | Some a ->
    let sol = decode_assignment a in
    let c = Solution.total_entries sol in
    best := Some sol;
    if c = 0 then () else Pb.at_most pb counting (c - 1)
  | None -> ());
  let rec descend iterations =
    let remaining = conflict_limit - Pb.num_conflicts pb in
    if remaining <= 0 || cancel () then
      ((match !best with Some _ -> `Feasible | None -> `Unknown), !best, iterations)
    else
      match Pb.solve ~conflict_limit:remaining ~cancel pb with
      | Cdcl.Sat model ->
        let c = count_true model in
        best := Some (decode model);
        if c = 0 then (`Optimal, !best, iterations + 1)
        else begin
          Pb.at_most pb counting (c - 1);
          descend (iterations + 1)
        end
      | Cdcl.Unsat -> (
        match !best with
        | Some sol -> (`Optimal, Some sol, iterations + 1)
        | None -> (`Unsat, None, iterations + 1))
      | Cdcl.Unknown -> (
        match !best with
        | Some sol -> (`Feasible, Some sol, iterations + 1)
        | None -> (`Unknown, None, iterations + 1))
  in
  let status, solution, iterations = descend 0 in
  {
    opt_status = status;
    opt_solution = solution;
    opt_conflicts = Pb.num_conflicts pb;
    iterations;
  }
