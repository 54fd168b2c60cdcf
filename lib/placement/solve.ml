type engine =
  | Ilp_engine
  | Sat_engine
  | Sat_opt_engine

let m_runs =
  Telemetry.Metrics.counter ~help:"placement pipeline runs"
    "sdnplace_solve_runs_total"

let stage_seconds stage =
  Telemetry.Metrics.histogram ~help:"pipeline stage wall time by stage"
    ~labels:[ ("stage", stage) ]
    "sdnplace_solve_stage_seconds"

(* Static registration so every series exists (at zero) from process
   start. *)
let m_stage_redundancy = stage_seconds "redundancy"

let m_stage_plan = stage_seconds "merge_plan"

let m_stage_layout = stage_seconds "layout"

let m_stage_solve = stage_seconds "solve"

let m_status name =
  Telemetry.Metrics.counter ~help:"pipeline results by status"
    ~labels:[ ("status", name) ]
    "sdnplace_solve_status_total"

let m_status_optimal = m_status "optimal"

let m_status_feasible = m_status "feasible"

let m_status_infeasible = m_status "infeasible"

let m_status_unknown = m_status "unknown"

type options = {
  merge : bool;
  slice : bool;
  monitors : (int * Ternary.Field.t) list;
  objective : Encode.objective;
  engine : engine;
  ilp_config : Ilp.Solver.config;
  sat_conflict_limit : int option;
}

let default_options =
  {
    merge = false;
    slice = false;
    monitors = [];
    objective = Encode.Total_rules;
    engine = Ilp_engine;
    ilp_config = Ilp.Solver.default_config;
    sat_conflict_limit = None;
  }

let options ?(merge = default_options.merge) ?(slice = default_options.slice)
    ?(monitors = default_options.monitors)
    ?(objective = default_options.objective) ?(engine = default_options.engine)
    ?(ilp_config = default_options.ilp_config) ?sat_conflict_limit ?(jobs = 1)
    () =
  if jobs <> 1 then invalid_arg "Solve.options: jobs must be 1";
  let sat_conflict_limit =
    match sat_conflict_limit with
    | None -> default_options.sat_conflict_limit
    | limit -> limit
  in
  { merge; slice; monitors; objective; engine; ilp_config; sat_conflict_limit }

type timing = { solve_s : float; total_s : float }

type report = {
  status : Encode.status;
  solution : Solution.t option;
  instance : Instance.t;
  layout : Layout.t;
  ilp_stats : Ilp.Solver.stats option;
  sat_conflicts : int option;
  timing : timing;
}

(* Best available ILP warm start: greedy, plus (under merging) the plain
   merge-free optimum, plus a cheap SAT probe when everything else
   fails.  Both helper solves poll the run's stop hook. *)
let ilp_warm_start ~cancel options inst_pre_plan (layout : Layout.t) =
  let candidates =
    Option.to_list (Baseline.greedy_assignment layout)
    @
    (* With merging enabled, the plain (merge-free) optimum is a
       feasible point of the merged model and a far better incumbent
       than greedy: it guarantees the merged answer is never worse than
       the unmerged one, even under a time limit.  Plain priorities map
       to the plan's renumbered ones by the renumber factor; dummies
       stay uninstalled. *)
    (if options.merge then
       (* The plain solve is only a warm start: give it a fraction of
          the budget, never more than the whole of it. *)
       let tl = options.ilp_config.Ilp.Solver.time_limit in
       let warm_config =
         {
           options.ilp_config with
           Ilp.Solver.time_limit = Float.min tl (Float.max 1.0 (tl /. 4.0));
         }
       in
       let plain_layout =
         Layout.build ~sliced:options.slice ~plan:Merge.empty_plan
           ~monitors:options.monitors inst_pre_plan
       in
       (* Greedy seeds the plain solve too: its incumbent crashes the
          root LP's first basis, where a cold start can stall. *)
       match
         (Encode.solve ~objective:options.objective ~config:warm_config ~cancel
            ?warm_start:(Baseline.greedy_assignment plain_layout)
            plain_layout)
           .Encode.solution
       with
       | Some plain ->
         let a =
           Array.init (Layout.num_vars layout) (fun v ->
               match Layout.key layout v with
               | Layout.Place { ingress; priority; switch; _ } ->
                 priority mod Merge.renumber_factor = 0
                 && Solution.is_placed plain ~ingress
                      ~priority:(priority / Merge.renumber_factor)
                      ~switch
               | Layout.Merged _ -> false)
         in
         List.iter
           (fun (mv, members) ->
             a.(mv) <- List.for_all (fun v -> a.(v)) members)
           layout.Layout.merge_defs;
         [ a ]
       | None -> []
     else [])
  in
  match candidates with
  | [] ->
    (* Greedy is stuck but the instance may well be feasible: a quick
       SAT probe often finds an incumbent that lets the branch-and-bound
       prune from the start. *)
    (Sat_encode.solve ~conflict_limit:5_000 ~cancel layout)
      .Sat_encode.assignment
  | _ ->
    let score a =
      Encode.assignment_objective ~objective:options.objective layout a
    in
    Some
      (List.fold_left
         (fun best a -> if score a < score best then a else best)
         (List.hd candidates) (List.tl candidates))

(* One engine's answer, normalized across engines. *)
type verdict = {
  v_status : Encode.status;
  v_solution : Solution.t option;
  v_ilp_stats : Ilp.Solver.stats option;
  v_conflicts : int option;
}

let run_ilp ~cancel options inst_pre_plan layout =
  let t0 = Unix.gettimeofday () in
  let limit = options.ilp_config.Ilp.Solver.time_limit in
  (* The SAT probe has no time limit of its own: the run's limit stops
     the warm start's solves too. *)
  let warm_cancel () = cancel () || Unix.gettimeofday () -. t0 > limit in
  let warm_start =
    Telemetry.Trace.with_span "solve.warm_start" @@ fun () ->
    ilp_warm_start ~cancel:warm_cancel options inst_pre_plan layout
  in
  (* The time limit bounds the run's ILP work as a whole: the main
     solve gets what the warm start left of it. *)
  let config =
    let c = options.ilp_config in
    let left = c.Ilp.Solver.time_limit -. (Unix.gettimeofday () -. t0) in
    { c with Ilp.Solver.time_limit = Float.max 0.01 left }
  in
  let r =
    Encode.solve ~objective:options.objective ~config ~cancel ?warm_start
      layout
  in
  {
    v_status = r.Encode.status;
    v_solution = r.Encode.solution;
    v_ilp_stats = Some r.Encode.ilp_stats;
    v_conflicts = None;
  }

let run_sat ~cancel options layout =
  let r = Sat_encode.solve ?conflict_limit:options.sat_conflict_limit ~cancel layout in
  let status =
    match r.Sat_encode.status with
    | `Sat -> `Feasible
    | `Unsat -> `Infeasible
    | `Unknown -> `Unknown
  in
  {
    v_status = status;
    v_solution = r.Sat_encode.solution;
    v_ilp_stats = None;
    v_conflicts = Some r.Sat_encode.conflicts;
  }

let run_sat_opt ~cancel options layout =
  match options.objective with
  | Encode.Total_rules ->
    let r =
      Sat_encode.minimize ?conflict_limit:options.sat_conflict_limit ~cancel
        layout
    in
    let status =
      match r.Sat_encode.opt_status with
      | `Optimal -> `Optimal
      | `Feasible -> `Feasible
      | `Unsat -> `Infeasible
      | `Unknown -> `Unknown
    in
    {
      v_status = status;
      v_solution = r.Sat_encode.opt_solution;
      v_ilp_stats = None;
      v_conflicts = Some r.Sat_encode.opt_conflicts;
    }
  | Encode.Upstream_drops | Encode.Switch_weighted _ ->
    (* The cardinality descent only minimizes the installed-entry count:
       under other objectives the SAT side decides feasibility only. *)
    run_sat ~cancel options layout

let run ?(options = default_options) ?deadline inst =
  (* Turn the wall-clock deadline into one cooperative stop signal, and
     clamp the ILP time limit to the remaining budget so neither bound
     can outlive the other. *)
  let options =
    match deadline with
    | None -> options
    | Some d ->
      let remaining = Float.max 0.01 (d -. Unix.gettimeofday ()) in
      let tl =
        Float.min options.ilp_config.Ilp.Solver.time_limit remaining
      in
      {
        options with
        ilp_config = { options.ilp_config with Ilp.Solver.time_limit = tl };
      }
  in
  let stop () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  Telemetry.Metrics.incr m_runs;
  Telemetry.Trace.with_span "solve.run" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* Stage 1: redundancy removal, per policy. *)
  let inst =
    Telemetry.Trace.with_span "solve.redundancy" @@ fun () ->
    Instance.map_policies inst (fun _ q -> fst (Acl.Redundancy.remove q))
  in
  let t1 = Unix.gettimeofday () in
  (* Stage 2 (optional): merge planning with cycle breaking. *)
  let inst_pre_plan = inst in
  let inst, plan =
    Telemetry.Trace.with_span "solve.merge_plan" @@ fun () ->
    if options.merge then Merge.plan inst else (inst, Merge.empty_plan)
  in
  let t2 = Unix.gettimeofday () in
  (* Stage 3: dependency graphs + constraint layout. *)
  let layout =
    Telemetry.Trace.with_span "solve.layout" @@ fun () ->
    Layout.build ~sliced:options.slice ~plan ~monitors:options.monitors inst
  in
  let t3 = Unix.gettimeofday () in
  (* Stage 4: solve. *)
  let verdict =
    Telemetry.Trace.with_span "solve.engine" @@ fun () ->
    match options.engine with
    | Ilp_engine -> run_ilp ~cancel:stop options inst_pre_plan layout
    | Sat_engine -> run_sat ~cancel:stop options layout
    | Sat_opt_engine -> run_sat_opt ~cancel:stop options layout
  in
  let t4 = Unix.gettimeofday () in
  Telemetry.Metrics.observe m_stage_redundancy (t1 -. t0);
  Telemetry.Metrics.observe m_stage_plan (t2 -. t1);
  Telemetry.Metrics.observe m_stage_layout (t3 -. t2);
  Telemetry.Metrics.observe m_stage_solve (t4 -. t3);
  Telemetry.Metrics.incr
    (match verdict.v_status with
    | `Optimal -> m_status_optimal
    | `Feasible -> m_status_feasible
    | `Infeasible -> m_status_infeasible
    | `Unknown -> m_status_unknown);
  {
    status = verdict.v_status;
    solution = verdict.v_solution;
    instance = inst;
    layout;
    ilp_stats = verdict.v_ilp_stats;
    sat_conflicts = verdict.v_conflicts;
    timing = { solve_s = t4 -. t3; total_s = t4 -. t0 };
  }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>status: %a@,%a@,solve time: %.3fs (total %.3fs)@]"
    Encode.pp_status r.status
    (Format.pp_print_option
       ~none:(fun fmt () -> Format.pp_print_string fmt "no placement")
       Solution.pp_summary)
    r.solution r.timing.solve_s r.timing.total_s
