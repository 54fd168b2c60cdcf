(* Benchmark harness: regenerates every table and figure of the paper's
   Section V (scaled — see EXPERIMENTS.md), runs the future-work SAT
   comparison, the baseline comparison and the design ablations.

   Usage: dune exec bench/main.exe -- [--quick] [--smoke] [--seed N]
                                      [--metrics FILE] [--trace FILE]
                                      [--only fig7|fig8|fig9|fig10|fig11|
                                              table2|exp5|s1|b1|ablations|
                                              chaos|update|crash|serve|lp|
                                              caching]

   --only is repeatable.  An unknown flag or --only name, a missing
   value, or a non-integer --seed exits with status 2. *)

let experiments =
  [
    "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "table2"; "exp5"; "s1"; "b1";
    "ablations"; "chaos"; "update"; "crash"; "serve"; "lp"; "caching";
  ]

let smoke = ref false
let quick = ref false
let only = ref []

(* --seed N varies the chaos-soak churn/fault stream (CI runs a small
   seed matrix through it). *)
let seed = ref 1

(* --metrics FILE / --trace FILE: enable telemetry for the whole run and
   write the Prometheus exposition / JSONL spans on exit ("-" = stdout). *)
let metrics_out = ref None
let trace_out = ref None

let () =
  Arg.parse
    (Arg.align
       [
         ("--smoke", Arg.Set smoke, " one tiny point per experiment family");
         ("--quick", Arg.Set quick, " reduced sweeps");
         ("--seed", Arg.Set_int seed, "N chaos/serve/caching seed");
         ( "--metrics",
           Arg.String (fun f -> metrics_out := Some f),
           "FILE write the Prometheus exposition" );
         ( "--trace",
           Arg.String (fun f -> trace_out := Some f),
           "FILE write the JSONL spans" );
         ( "--only",
           Arg.Symbol (experiments, fun name -> only := name :: !only),
           " run one experiment (repeatable)" );
       ])
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "usage: bench/main.exe [options]"

let smoke = !smoke
let quick = smoke || !quick
let seed = !seed
let metrics_out = !metrics_out
let trace_out = !trace_out

(* --smoke: the CI perf canary — one tiny point per experiment family so
   a regression fails loudly without burning minutes. *)
let only =
  if smoke && !only = [] then [ "fig7"; "s1"; "lp" ] else !only

let wants name = only = [] || List.mem name only

(* Set to false by an experiment that detected a regression; turns into
   a non-zero exit so CI lanes fail loudly. *)
let all_ok = ref true

let write_export dest content =
  match dest with
  | "-" -> print_string content
  | path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content)

let seeds = if quick then [ 1 ] else [ 1; 2 ]

let time_limit = if smoke then 2.0 else if quick then 5.0 else 10.0

let rules_sweep =
  if smoke then [ 8; 20 ]
  else if quick then [ 8; 20; 32; 44 ]
  else [ 8; 14; 20; 26; 32; 38; 44 ]

let run_experiments () =
  Printf.printf
    "SDN rule placement benchmarks (scaled reproduction; paper: DSN'14)\n";
  Printf.printf "mode: %s, seeds/point: %d, ILP time limit: %.0fs\n"
    (if quick then "quick" else "full")
    (List.length seeds) time_limit;

  if wants "fig7" then
    Exp_scalability.rules_figure
      ~title:"Figure 7 (scaled): time vs #rules, Fat-Tree k=4, p=64"
      ~k:4 ~paths:64 ~caps:(18, 100) ~rules_sweep ~seeds ~time_limit ();
  if wants "fig8" then
    Exp_scalability.rules_figure
      ~title:"Figure 8 (scaled): time vs #rules, Fat-Tree k=6, p=64"
      ~k:6 ~paths:64 ~caps:(20, 120) ~rules_sweep ~seeds ~time_limit ();
  if wants "fig9" then
    Exp_scalability.rules_figure
      ~title:"Figure 9 (scaled): time vs #rules, Fat-Tree k=8, p=64"
      ~k:8 ~paths:64 ~caps:(24, 140) ~rules_sweep ~seeds ~time_limit ();

  if wants "fig10" then
  Exp_scalability.paths_figure
    ~title:"Figure 10 (scaled): time vs #paths, k=4, r=26"
    ~k:4 ~rules:26 ~caps:(16, 60)
    ~paths_sweep:(if quick then [ 16; 32; 48; 64 ] else [ 16; 24; 32; 40; 48; 56; 64 ])
    ~seeds ~time_limit ();

  if wants "table2" then
  Exp_merging.table
    ~title:"Table II (scaled): capacity vs overhead, 20 core rules + shared blacklist"
    ~core_rules:20
    ~capacities:[ 22; 26; 30 ]
    ~mr_sweep:(if quick then [ 2; 6; 10 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
    ~seeds:[ 1 ] ~time_limit ();

  if wants "fig11" then
  Exp_scalability.capacity_figure
    ~title:"Figure 11 (scaled): time vs switch capacity, k=4, r=26, p=48"
    ~k:4 ~rules:26 ~paths:48
    ~cap_sweep:(if quick then [ 8; 20; 40; 100 ] else [ 8; 12; 16; 20; 24; 30; 40; 60; 100 ])
    ~seeds ~time_limit ();

  if wants "exp5" then
  Exp_incremental.run
    ~title:"Experiment 5 (scaled): incremental deployment, k=4, p=48, r=20, C=60"
    ~base_family:
      { Workload.default with Workload.rules = 20; paths = 48; capacity = 60 }
    ~install_batches:[ 4; 8; 16 ]
    ~reroute_batches:[ 1; 4; 8 ]
    ~new_rules:20 ~time_limit ();

  if wants "s1" then
  Exp_sat.run
    ~title:"Experiment S1 (paper future work): SAT/PB formulation vs ILP"
    ~k:4 ~paths:32 ~caps:(16, 60)
    ~rules_sweep:[ 8; 20; 32 ]
    ~time_limit ();

  if wants "chaos" then
    Exp_chaos.run
      ~title:
        (Printf.sprintf
           "Experiment C1: chaos soak (runtime reconciliation under injected \
            faults, seed %d)"
           seed)
      ~seed
      ~events:(if smoke then 60 else 100)
      ~time_limit ();

  if wants "update" then
    Exp_chaos.update_storm
      ~title:
        (Printf.sprintf
           "Experiment C3: update storm (per-packet-consistent waves under \
            mid-wave faults and kill-point crashes, seed %d)"
           seed)
      ~seed
      ~events:(if smoke then 60 else 200)
      ~time_limit ();

  if wants "crash" then
    Exp_chaos.crash_soak
      ~title:
        (Printf.sprintf
           "Experiment C2: crash-recovery soak (journaled runtime killed at \
            every WAL kill point, seed %d)"
           seed)
      ~seed
      ~events:(if smoke then 25 else 60)
      ~time_limit ();

  if wants "serve" then
    Exp_serve.run
      ~title:
        (Printf.sprintf
           "Experiment S2: serving soak (multi-tenant daemon under a flooding \
            client and kill/restart crashes, seed %d)"
           seed)
      ~seed ~smoke ();

  if wants "caching" then begin
    let ok =
      Exp_caching.run
        ~title:
          (Printf.sprintf
             "Experiment CACHE1: traffic-driven rule caching and flow \
              delegation (seed %d)"
             seed)
        ~seeds:(if quick then [ seed ] else [ seed; seed + 1; seed + 2 ])
        ~smoke ()
    in
    if not ok then all_ok := false
  end;

  if wants "lp" then begin
    (* Warm-start and iteration tallies come from telemetry counter
       deltas, so metrics must be on for this experiment. *)
    let was_enabled = Telemetry.Metrics.is_enabled () in
    if not was_enabled then Telemetry.Metrics.enable ();
    let ok =
      Exp_solver.run
        ~title:
          "Experiment LP1: root LP relaxation, dense tableau vs sparse \
           revised simplex (differential + speedup)"
        ~smoke ~quick ~time_limit ~json_path:"BENCH_solver.json" ()
    in
    if not was_enabled then Telemetry.Metrics.disable ();
    if not ok then all_ok := false
  end;

  if wants "b1" then
  Exp_baseline.run
    ~title:"Experiment B1: ILP vs greedy vs replicate-everywhere (p x r)"
    ~k:4 ~rules:16 ~paths_sweep:[ 16; 32; 48 ] ~capacity:80 ~time_limit ();

  if wants "ablations" then begin
    Exp_ablation.objective_ablation
      ~title:"Ablation A1: total-rules vs upstream-drops objective" ~time_limit ();
    Exp_ablation.slicing_ablation
      ~title:"Ablation A2: path slicing on/off" ~time_limit ();
    Exp_ablation.solver_ablation
      ~title:"Ablation A3: root LP relaxation on/off" ~time_limit ()
  end

let () =
  if metrics_out <> None then Telemetry.Metrics.enable ();
  if trace_out <> None then Telemetry.Trace.enable ();
  run_experiments ();
  Option.iter
    (fun d -> write_export d (Telemetry.Metrics.render ()))
    metrics_out;
  Option.iter (fun d -> write_export d (Telemetry.Trace.export_jsonl ())) trace_out;
  if not !all_ok then begin
    print_endline "benchmarks FAILED (see above).";
    exit 1
  end;
  print_endline "benchmarks complete."
