(* Experiment LP1: the production ILP pipeline point by point over the
   scalability sweeps plus a paper-scale axis.  Each sweep point's root
   LP relaxation ([Ilp.Model.lp_relaxation] of the pipeline's own
   layout) is also solved by both the dense reference tableau
   ([Simplex.solve_dense]) and the production sparse revised simplex
   ([Simplex.solve]) as a differential check: the two engines must
   agree on the root LP's verdict and, when both prove optimality, on
   its objective.
   The dense/sparse root-LP time ratios feed a geometric mean, and
   everything is also dumped as BENCH_solver.json for machine
   consumption.  Timings are the best of several runs; the ILP's
   LP-seconds attribution (telemetry histogram delta) separates solver
   time from the shared pipeline overhead that end-to-end walls
   include.  In smoke mode the experiment is the CI perf canary: it
   fails the run when the sparse engine's root-LP time is slower than
   the dense one's on the smoke set or when any differential check
   trips. *)

type run = {
  r_status : Placement.Encode.status;
  r_objective : float option;
  r_wall : float;
  r_lp_s : float;
  r_lp_iters : int;
  r_warm_hits : int;
  r_warm_misses : int;
  r_layout : Placement.Layout.t;
}

(* Handles onto series registered by the engines; registration is
   idempotent by (name, labels), so these are lookups. *)
let c_iters = Telemetry.Metrics.counter "sdnplace_simplex_iterations_total"

let c_hits = Telemetry.Metrics.counter "sdnplace_ilp_warm_start_hits_total"

let c_misses = Telemetry.Metrics.counter "sdnplace_ilp_warm_start_misses_total"

let h_lp = Telemetry.Metrics.histogram "sdnplace_ilp_lp_seconds"

let run_ilp_once ~time_limit inst =
  let i0 = Telemetry.Metrics.counter_value c_iters in
  let h0 = Telemetry.Metrics.counter_value c_hits in
  let m0 = Telemetry.Metrics.counter_value c_misses in
  let s0 = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum in
  let report, wall =
    Harness.wall (fun () ->
        Placement.Solve.run
          ~options:(Harness.solve_options ~time_limit ())
          inst)
  in
  {
    r_status = report.Placement.Solve.status;
    r_objective =
      Option.map
        (fun (s : Placement.Solution.t) -> s.Placement.Solution.objective)
        report.Placement.Solve.solution;
    r_wall = wall;
    r_lp_s = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum -. s0;
    r_lp_iters = Telemetry.Metrics.counter_value c_iters - i0;
    r_warm_hits = Telemetry.Metrics.counter_value c_hits - h0;
    r_warm_misses = Telemetry.Metrics.counter_value c_misses - m0;
    r_layout = report.Placement.Solve.layout;
  }

(* Best-of-[reps]: system noise easily swamps sub-second solves, so the
   minimum wall (with its matching attribution) is the honest estimate
   of the cost. *)
let best_of reps ~wall f =
  let best = ref (f ()) in
  for _ = 2 to reps do
    let r = f () in
    if wall r < wall !best then best := r
  done;
  !best

let run_ilp ~reps ~time_limit inst =
  best_of reps ~wall:(fun r -> r.r_wall) (fun () ->
      run_ilp_once ~time_limit inst)

(* One engine on the root LP: verdict plus its best wall over at least
   [reps] runs and 50 ms, so that sub-millisecond LPs get enough samples
   for the minimum to settle. *)
let time_root_lp ~reps solve lp =
  let rec go n spent best =
    if n >= reps && spent >= 0.05 then best
    else
      let ((_, w) as r) = Harness.wall (fun () -> solve lp) in
      go (n + 1) (spent +. w) (if w < snd best then r else best)
  in
  let ((_, w) as first) = Harness.wall (fun () -> solve lp) in
  go 1 w first

let agree (d : Simplex.status) (s : Simplex.status) =
  match (d, s) with
  | Simplex.Optimal { objective = a; _ }, Simplex.Optimal { objective = b; _ }
    ->
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)
  | Simplex.Infeasible, Simplex.Infeasible
  | Simplex.Unbounded, Simplex.Unbounded ->
    true
  | _ -> false

let lp_status_short = function
  | Simplex.Optimal _ -> "opt"
  | Simplex.Infeasible -> "INF"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter-limit"

let lp_objective = function
  | Simplex.Optimal { objective; _ } -> Some objective
  | _ -> None

type point = {
  p_name : string;
  p_family : Workload.family;
  p_root_lp : bool;  (* paper-scale points skip the root-LP comparison *)
}

let point ?(root_lp = true) ~name f =
  { p_name = name; p_family = f; p_root_lp = root_lp }

let sweep_points ~smoke ~quick =
  let fam ?(k = 4) ?(rules = 20) ?(paths = 64) ?(capacity = 100) ?(seed = 1) ()
      =
    { Workload.default with Workload.k; rules; paths; capacity; seed }
  in
  if smoke then
    [
      point ~name:"k4 r8 p16 C60" (fam ~rules:8 ~paths:16 ~capacity:60 ());
      point ~name:"k4 r20 p32 C100" (fam ~paths:32 ());
      point ~name:"k4 r14 p24 C12" (fam ~rules:14 ~paths:24 ~capacity:12 ());
    ]
  else
    (* The exp_scalability figures' own points (figs 7-11 families). *)
    [
      point ~name:"fig7 k4 r8 C18" (fam ~rules:8 ~capacity:18 ());
      point ~name:"fig7 k4 r20 C18" (fam ~capacity:18 ());
      point ~name:"fig7 k4 r32 C100" (fam ~rules:32 ());
      point ~name:"fig7 k4 r44 C100" (fam ~rules:44 ());
      point ~name:"fig8 k6 r20 C120" (fam ~k:6 ~capacity:120 ());
      point ~name:"fig10 k4 r26 p48 C60" (fam ~rules:26 ~paths:48 ~capacity:60 ());
      point ~name:"fig11 k4 r26 p48 C16" (fam ~rules:26 ~paths:48 ~capacity:16 ());
    ]
    @ (if quick then []
       else
         [
           point ~name:"fig9 k8 r20 C140" (fam ~k:8 ~capacity:140 ());
           point ~name:"fig10 k4 r26 p64 C60"
             (fam ~rules:26 ~paths:64 ~capacity:60 ());
         ])
    (* Paper-scale instances under a 10 s cap: the JSON records whether
       the pipeline closes them.  They skip the root-LP comparison, since
       the dense tableau passes 1 GB and minutes here. *)
    @ [
        point ~root_lp:false ~name:"big k8 r20 p256 C140"
          (fam ~k:8 ~paths:256 ~capacity:140 ());
        point ~root_lp:false ~name:"big k4 r80 p64 C200"
          (fam ~rules:80 ~capacity:200 ());
      ]

let json_of_run (r : run) =
  Harness.(
    Obj
      [
        ("status", Str (status_short r.r_status));
        ("objective", opt (fun o -> Float o) r.r_objective);
        ("wall_s", Float r.r_wall);
        ("lp_s", Float r.r_lp_s);
        ("lp_iterations", Int r.r_lp_iters);
        ("warm_start_hits", Int r.r_warm_hits);
        ("warm_start_misses", Int r.r_warm_misses);
        ( "warm_start_hit_rate",
          let total = r.r_warm_hits + r.r_warm_misses in
          if total = 0 then Null
          else Float (float_of_int r.r_warm_hits /. float_of_int total) );
      ])

let json_of_root_lp (status, seconds) =
  Harness.(
    Obj
      [
        ("status", Str (lp_status_short status));
        ("objective", opt (fun o -> Float o) (lp_objective status));
        ("wall_s", Float seconds);
      ])

let geomean = function
  | [] -> 1.0
  | rs ->
    exp
      (List.fold_left (fun a r -> a +. log r) 0.0 rs
      /. float_of_int (List.length rs))

(* ---------------- paper-scale scoreboard (LP2) ---------------- *)

(* Each scoreboard point runs the full pipeline with the default solver
   stack (sparse engine, cuts + feasibility pump) under a
   per-point wall cap, and records status / best-of-reps wall /
   attributed LP time / objective / root bound.  Unsolved points are
   included deliberately: the scoreboard records progress over time,
   while the CI gate (tools/scoreboard_gate.py) only forbids
   regressions — a previously-"opt" point falling to a limit status, or
   a solved point slowing down by more than 25%. *)

type sb_run = {
  b_status : Placement.Encode.status;
  b_wall : float;
  b_lp_s : float;
  b_objective : float option;
  b_root_bound : float option;
}

let scoreboard_points ~smoke ~quick =
  let fam ?(k = 4) ?(rules = 20) ?(paths = 64) ?(capacity = 100) ?(seed = 1) ()
      =
    { Workload.default with Workload.k; rules; paths; capacity; seed }
  in
  [
    ("sb k8 r20 p256 C140", fam ~k:8 ~paths:256 ~capacity:140 ());
    ("sb k4 r80 p64 C200", fam ~rules:80 ~capacity:200 ());
  ]
  @
  if smoke || quick then []
  else
    [
      (* Closed at the root by crash-started LP + cuts + pump; a plain
         branch & bound times out here. *)
      ("sb k4 r110 p64 C260", fam ~rules:110 ~capacity:260 ());
      ("sb k8 r44 p256 C160", fam ~k:8 ~rules:44 ~paths:256 ~capacity:160 ());
      ("sb k16 r20 p256 C140", fam ~k:16 ~paths:256 ~capacity:140 ());
    ]

let run_scoreboard_once ~time_limit inst =
  let s0 = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum in
  let report, wall =
    Harness.wall (fun () ->
        Placement.Solve.run
          ~options:(Harness.solve_options ~time_limit ())
          inst)
  in
  {
    b_status = report.Placement.Solve.status;
    b_wall = wall;
    b_lp_s = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum -. s0;
    b_objective =
      Option.map
        (fun (s : Placement.Solution.t) -> s.Placement.Solution.objective)
        report.Placement.Solve.solution;
    b_root_bound =
      Option.map
        (fun (s : Ilp.Solver.stats) -> s.Ilp.Solver.root_bound)
        report.Placement.Solve.ilp_stats;
  }

let run_scoreboard ~reps ~time_limit inst =
  best_of reps ~wall:(fun r -> r.b_wall) (fun () ->
      run_scoreboard_once ~time_limit inst)

(* Relative optimality gap of the returned incumbent; 0 on a proof,
   null when either side is missing. *)
let sb_gap (r : sb_run) =
  match (r.b_status, r.b_objective, r.b_root_bound) with
  | `Optimal, _, _ | `Infeasible, _, _ -> Some 0.0
  | _, Some obj, Some rb when Float.is_finite rb ->
    Some (Float.max 0.0 ((obj -. rb) /. Float.max (Float.abs obj) 1.0))
  | _ -> None

let sb_json ~time_limit ~reps entries =
  let point_json (name, (f : Workload.family), r) =
    Harness.(
      Obj
        [
          ("point", Str name);
          ("k", Int f.Workload.k);
          ("rules", Int f.Workload.rules);
          ("paths", Int f.Workload.paths);
          ("capacity", Int f.Workload.capacity);
          ("seed", Int f.Workload.seed);
          ("status", Str (status_short r.b_status));
          ("wall_s", Float r.b_wall);
          ("lp_s", Float r.b_lp_s);
          ("objective", opt (fun o -> Float o) r.b_objective);
          ( "root_bound",
            match r.b_root_bound with
            | Some b when Float.is_finite b -> Float b
            | _ -> Null );
          ("gap", opt (fun g -> Float g) (sb_gap r));
        ])
  in
  Harness.(
    Obj
      [
        ("time_limit_s", Float time_limit);
        ("reps", Int reps);
        ("points", List (List.map point_json entries));
      ])

let run ~title ~smoke ~quick ~time_limit ~json_path () =
  let points = sweep_points ~smoke ~quick in
  let reps = 3 and lp_reps = 5 in
  let results =
    List.map
      (fun p ->
        let ilp = run_ilp ~reps ~time_limit (Workload.build p.p_family) in
        let root =
          if p.p_root_lp then begin
            let enc = Placement.Encode.to_model ilp.r_layout in
            let lp = Ilp.Model.lp_relaxation enc.Placement.Encode.model in
            (* Objectives in layout terms: the pinned cost added back. *)
            let timed solve =
              match time_root_lp ~reps:lp_reps solve lp with
              | Simplex.Optimal o, wall ->
                let objective = o.objective +. enc.Placement.Encode.constant in
                (Simplex.Optimal { o with objective }, wall)
              | r -> r
            in
            Some (timed Simplex.solve_dense, timed Simplex.solve)
          end
          else None
        in
        (p, ilp, root))
      points
  in
  let lp_ratio ((_, d), (_, s)) = d /. Float.max s 1e-9 in
  let agreement ((d, _), (s, _)) = agree d s in
  (* Table. *)
  let fmt_lp (status, wall) =
    Printf.sprintf "%.2fms (%s)" (wall *. 1000.0) (lp_status_short status)
  in
  let on_root f root = Option.fold ~none:"-" ~some:f root in
  let rows =
    List.map
      (fun (p, ilp, root) ->
        let hit_rate =
          let total = ilp.r_warm_hits + ilp.r_warm_misses in
          if total = 0 then "-"
          else
            Printf.sprintf "%d%%"
              (int_of_float
                 (100.0 *. float_of_int ilp.r_warm_hits /. float_of_int total))
        in
        [
          p.p_name;
          Printf.sprintf "%s (%s)" (Harness.sec ilp.r_wall)
            (Harness.status_short ilp.r_status);
          string_of_int ilp.r_lp_iters;
          hit_rate;
          on_root (fun (d, _) -> fmt_lp d) root;
          on_root (fun (_, s) -> fmt_lp s) root;
          on_root (fun r -> Printf.sprintf "%.1fx" (lp_ratio r)) root;
          on_root (fun r -> if agreement r then "ok" else "MISMATCH") root;
        ])
      results
  in
  Harness.print_table ~title
    ~headers:
      [
        "point"; "ilp"; "ilp iters"; "warm"; "root lp dense"; "root lp sparse";
        "speedup"; "diff";
      ]
    rows;
  (* Aggregates. *)
  let roots = List.filter_map (fun (_, _, root) -> root) results in
  let lp_geo = geomean (List.map lp_ratio roots) in
  let mismatches =
    List.length (List.filter (fun r -> not (agreement r)) roots)
  in
  Printf.printf
    "geometric-mean root-LP speedup (dense/sparse) over %d points: %.2fx\n"
    (List.length roots) lp_geo;
  if mismatches > 0 then
    Printf.printf "DIFFERENTIAL FAILURES: %d point(s) disagree\n" mismatches;
  (* Paper-scale scoreboard: best-of-reps, per-point cap = [time_limit]. *)
  let sb_reps = if smoke then 1 else 2 in
  let scoreboard =
    List.map
      (fun (name, f) ->
        (name, f, run_scoreboard ~reps:sb_reps ~time_limit (Workload.build f)))
      (scoreboard_points ~smoke ~quick)
  in
  Harness.print_table ~title:"Paper-scale scoreboard (LP2)"
    ~headers:[ "point"; "status"; "wall"; "lp s"; "objective"; "gap" ]
    (List.map
       (fun (name, _, r) ->
         [
           name;
           Harness.status_short r.b_status;
           Harness.sec r.b_wall;
           Harness.sec r.b_lp_s;
           (match r.b_objective with
           | Some o -> Printf.sprintf "%.0f" o
           | None -> "-");
           (match sb_gap r with
           | Some g -> Printf.sprintf "%.3f" g
           | None -> "-");
         ])
       scoreboard);
  (* Machine-readable dump. *)
  let point_json (p, ilp, root) =
    let f = p.p_family in
    Harness.(
      Obj
        [
          ("point", Str p.p_name);
          ("k", Int f.Workload.k);
          ("rules", Int f.Workload.rules);
          ("paths", Int f.Workload.paths);
          ("capacity", Int f.Workload.capacity);
          ("seed", Int f.Workload.seed);
          ("ilp", json_of_run ilp);
          ( "root_lp",
            opt
              (fun (d, s) ->
                Obj
                  [
                    ("dense", json_of_root_lp d);
                    ("sparse", json_of_root_lp s);
                    ("speedup", Float (lp_ratio (d, s)));
                    ("agree", Bool (agreement (d, s)));
                  ])
              root );
        ])
  in
  Harness.(
    write_json ~path:json_path
      (Obj
         [
           ("experiment", Str "root_lp_comparison");
           ( "mode",
             Str (if smoke then "smoke" else if quick then "quick" else "full")
           );
           ("time_limit_s", Float time_limit);
           ("reps", Int reps);
           ("root_lp_reps", Int lp_reps);
           ("points", List (List.map point_json results));
           ("scoreboard", sb_json ~time_limit ~reps:sb_reps scoreboard);
           ("geomean_root_lp_speedup", Float lp_geo);
           ("differential_failures", Int mismatches);
         ]));
  (* Verdict for the CI canary. *)
  let ok = mismatches = 0 && (not smoke || lp_geo >= 1.0) in
  if not ok then
    Printf.printf "exp_solver: FAILED (%s)\n"
      (if mismatches > 0 then "differential mismatch"
       else "sparse root LP slower than dense on the smoke set");
  ok
