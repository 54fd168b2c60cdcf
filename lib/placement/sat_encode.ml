type status = [ `Sat | `Unsat | `Unknown ]

type result = {
  status : status;
  solution : Solution.t option;
  assignment : bool array option;
  conflicts : int;
}

(* The formula, the literal of each layout variable, and every
   placement literal with its layout variable (-1 for a pinned pair),
   last first.  Each (rule, switch) pair of a pinned policy gets a
   literal too, fixed by a unit clause: the CDCL breaks ties between
   equal activities by an unstable sort over all its variables, so
   leaving them out would change its search, and the incumbent the SAT
   probe hands the ILP. *)
let to_pb (layout : Layout.t) =
  let pb = Pb.create () in
  let vars = Array.make (Layout.num_vars layout) 0 in
  let placements = ref [] and pins = ref [] in
  Layout.iter_pairs layout (fun v held ->
      let x = Pb.fresh pb in
      placements := (v, x) :: !placements;
      if v >= 0 then vars.(v) <- x
      else pins := (if held then x else -x) :: !pins);
  List.iter
    (fun (mv, _) -> vars.(mv) <- Pb.fresh pb)
    (List.rev layout.Layout.merge_defs);
  Layout.iter_implications layout (fun vd vp ->
      Pb.implies pb vars.(vd) vars.(vp));
  List.iter
    (fun v -> Pb.add_clause pb [ -vars.(v) ])
    layout.Layout.forbidden;
  List.iter (fun l -> Pb.add_clause pb [ l ]) (List.rev !pins);
  Layout.iter_covers layout (fun off js ->
      Pb.add_clause pb
        (Array.fold_right (fun j l -> vars.(off + j) :: l) js []));
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
  (pb, vars, !placements)

(* A layout assignment as a solution, scored by its entry count. *)
let solution_of layout a =
  Solution.of_assignment layout a
    ~objective:
      (Encode.assignment_objective ~objective:Encode.Total_rules layout a)

let solve ?conflict_limit ?cancel (layout : Layout.t) =
  let pb, vars, _ = to_pb layout in
  let status, assignment =
    match Pb.solve ?conflict_limit ?cancel pb with
    | Cdcl.Sat model -> (`Sat, Some (Array.map (fun v -> model.(v - 1)) vars))
    | Cdcl.Unsat -> (`Unsat, None)
    | Cdcl.Unknown -> (`Unknown, None)
  in
  {
    status;
    solution = Option.map (solution_of layout) assignment;
    assignment;
    conflicts = Pb.num_conflicts pb;
  }

type opt_result = {
  opt_status : [ `Optimal | `Feasible | `Unsat | `Unknown ];
  opt_solution : Solution.t option;
  opt_conflicts : int;
}

let minimize ?(conflict_limit = 2_000_000) ?(cancel = fun () -> false)
    (layout : Layout.t) =
  let pb, vars, placements = to_pb layout in
  (* Counting literals: one per prospective entry.  Grouped members are
     counted through w = v && not v_m so an active merge costs exactly
     one (the merged literal itself). *)
  let grouped = Hashtbl.create 64 in
  List.iter
    (fun (mv, members) ->
      Hashtbl.replace grouped mv ();
      List.iter (fun v -> Hashtbl.replace grouped v ()) members)
    layout.Layout.merge_defs;
  let counting =
    ref
      (List.filter_map
         (fun (v, x) -> if Hashtbl.mem grouped v then None else Some x)
         placements)
  in
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
  let decode model =
    solution_of layout (Array.map (fun v -> model.(v - 1)) vars)
  in
  (* Seed the descent from the greedy heuristic: its entry count is an
     upper bound, so the first SAT call already searches strictly below
     it instead of crawling down from an arbitrary first model. *)
  let best = ref None in
  (match Baseline.greedy_assignment layout with
  | Some a ->
    let sol = solution_of layout a in
    let c = Solution.total_entries sol in
    best := Some sol;
    if c = 0 then () else Pb.at_most pb counting (c - 1)
  | None -> ());
  let rec descend () =
    let remaining = conflict_limit - Pb.num_conflicts pb in
    if remaining <= 0 || cancel () then
      ((match !best with Some _ -> `Feasible | None -> `Unknown), !best)
    else
      match Pb.solve ~conflict_limit:remaining ~cancel pb with
      | Cdcl.Sat model ->
        let c = count_true model in
        best := Some (decode model);
        if c = 0 then (`Optimal, !best)
        else begin
          Pb.at_most pb counting (c - 1);
          descend ()
        end
      | Cdcl.Unsat -> (
        match !best with
        | Some sol -> (`Optimal, Some sol)
        | None -> (`Unsat, None))
      | Cdcl.Unknown -> (
        match !best with
        | Some sol -> (`Feasible, Some sol)
        | None -> (`Unknown, None))
  in
  let status, solution = descend () in
  {
    opt_status = status;
    opt_solution = solution;
    opt_conflicts = Pb.num_conflicts pb;
  }
