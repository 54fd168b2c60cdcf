(* Search limits and cooperative cancellation: the branch and bound
   proves most small random instances inside its time limit, a node
   limit stops it on exactly the node past the limit, time limits and
   stage times are wall-clock, and cancellation or a deadline stops
   every solver promptly without claiming a proof. *)
open Placement

let options =
  Solve.options
    ~ilp_config:{ Ilp.Solver.default_config with time_limit = 30.0 }
    ()

(* Small random instances are mostly settled well inside the 30 s
   limit: at least 15 of 22 end [Optimal] or [Infeasible]. *)
let test_random_instances_proved () =
  let g = Prng.create 2024 in
  let proved = ref 0 in
  for _ = 1 to 22 do
    let inst = Util.random_instance g in
    match (Solve.run ~options inst).Solve.status with
    | `Optimal | `Infeasible -> incr proved
    | `Feasible | `Unknown -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "proved %d of 22 cases" !proved)
    true (!proved >= 15)

let no_lp =
  { Ilp.Solver.default_config with lp_root = false; lp_depth = 0 }

(* Pigeonhole: [holes + 1] pigeons into [holes] holes.  Infeasible, but
   only by exhausting an exponential tree — propagation and cover bounds
   cannot close it early, so there is always work left to cancel. *)
let pigeonhole holes =
  let m = Ilp.Model.create () in
  let x =
    Array.init (holes + 1) (fun _ ->
        Array.init holes (fun _ -> Ilp.Model.binary m))
  in
  Array.iter
    (fun row ->
      Ilp.Model.add_ge m (Array.to_list (Array.map (fun v -> (1.0, v)) row)) 1.0)
    x;
  for h = 0 to holes - 1 do
    Ilp.Model.add_le m
      (List.init (holes + 1) (fun p -> (1.0, x.(p).(h))))
      1.0
  done;
  Ilp.Model.set_objective m
    (List.concat_map
       (fun row -> Array.to_list (Array.map (fun v -> (1.0, v)) row))
       (Array.to_list x));
  m

(* [2 (x_1 + ... + x_n) = n] for odd [n]: the LP relaxation is feasible
   (every x = 1/2), so unlike the pigeonhole no LP bound refutes it, and
   only an exhaustive search proves it infeasible. *)
let parity n =
  let m = Ilp.Model.create () in
  let x = List.init n (fun _ -> (1.0, Ilp.Model.binary m)) in
  Ilp.Model.add_eq m (List.map (fun (_, v) -> (2.0, v)) x) (float_of_int n);
  Ilp.Model.set_objective m x;
  m

(* Without the LP on the pigeonhole, and with the default configuration
   on the parity model, whose root LP, cut rounds, feasibility pump and
   dive must poll the hook too. *)
let test_prefired_cancel_stops_ilp () =
  List.iter
    (fun (label, config, model) ->
      let outcome, stats =
        Ilp.Solver.solve ~config ~cancel:(fun () -> true) model
      in
      (match outcome with
      | Ilp.Solver.Feasible _ | Ilp.Solver.Unknown -> ()
      | Ilp.Solver.Optimal _ | Ilp.Solver.Infeasible ->
        Alcotest.failf "%s: cancelled search claimed a proof" label);
      (* The poll runs every 256 nodes: a prompt stop visits few nodes. *)
      Alcotest.(check bool)
        (label ^ ": stopped promptly")
        true
        (stats.Ilp.Solver.nodes <= 1024))
    [
      ("no LP", no_lp, pigeonhole 9);
      ("default", Ilp.Solver.default_config, parity 21);
    ]

let test_prefired_cancel_stops_cdcl () =
  let pb = Pb.create () in
  let v = Array.init 30 (fun _ -> Pb.fresh pb) in
  (* Pigeonhole-flavoured contradiction: exhaustive search territory. *)
  Pb.at_most pb (List.map (fun l -> -l) (Array.to_list v)) 14;
  Pb.at_most pb (Array.to_list v) 14;
  match Pb.solve ~cancel:(fun () -> true) pb with
  | Cdcl.Unknown -> ()
  | Cdcl.Sat _ | Cdcl.Unsat ->
    Alcotest.fail "cancelled CDCL search still answered"

(* The search charges the node on which it sees the limit exceeded, so
   a limited search stops on exactly node [limit + 1]. *)
let test_node_limit_bounds_search () =
  let limit = 5_000 in
  let config = { no_lp with Ilp.Solver.node_limit = limit } in
  match Ilp.Solver.solve ~config (pigeonhole 9) with
  | (Ilp.Solver.Feasible _ | Ilp.Solver.Unknown), stats ->
    Alcotest.(check int) "stops one node past the limit" (limit + 1)
      stats.Ilp.Solver.nodes
  | (Ilp.Solver.Optimal _ | Ilp.Solver.Infeasible), _ ->
    Alcotest.fail "a search cut at the node limit claimed a proof"

(* The search's time limit is wall-clock time: with another
   domain spinning beside it, a 1 s limit must still buy close to 1 s
   of search, not 1 s of the whole process's CPU time. *)
let test_time_limit_is_wall_clock () =
  let limit = 1.0 in
  let config = { no_lp with Ilp.Solver.time_limit = limit } in
  let spin = Atomic.make true in
  let spinner =
    Domain.spawn (fun () ->
        while Atomic.get spin do
          ()
        done)
  in
  let t0 = Unix.gettimeofday () in
  let outcome, _ =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set spin false;
        Domain.join spinner)
      (fun () -> Ilp.Solver.solve ~config (pigeonhole 12))
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Ilp.Solver.Feasible _ | Ilp.Solver.Unknown -> ()
  | Ilp.Solver.Optimal _ | Ilp.Solver.Infeasible ->
    Alcotest.fail "pigeonhole(12) settled inside the time limit");
  Alcotest.(check bool)
    (Printf.sprintf "searched %.2fs of wall for a %.1fs limit" dt limit)
    true
    (dt >= 0.8 *. limit)

(* [Solve.run]'s stage times are wall-clock times too: a domain
   spinning beside the run must not be charged to it.  Process CPU time
   counts both domains, about twice the wall time on two cores, so a
   1-core host cannot tell the two clocks apart. *)
let test_stage_times_are_wall_clock () =
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.k = 16;
        paths = 1024;
        capacity = 140;
      }
  in
  let spin = Atomic.make true in
  let spinner =
    Domain.spawn (fun () ->
        while Atomic.get spin do
          ()
        done)
  in
  let t0 = Unix.gettimeofday () in
  let report =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set spin false;
        Domain.join spinner)
      (fun () -> Solve.run inst)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let total = report.Solve.timing.Solve.total_s in
  Alcotest.(check bool)
    (Printf.sprintf "total_s %.4fs within wall %.4fs" total wall)
    true
    (total <= (wall *. 1.2) +. 0.01)

(* A Table II merge instance whose root heuristics alone run for
   seconds: under merging the pipeline first solves the plain model as a
   warm start, so both that solve and the main one must honour the
   run's stop signal. *)
let table2_instance () =
  Workload.build
    {
      Workload.default with
      Workload.rules = 20;
      mergeable = 10;
      capacity = 30;
      paths = 48;
      ingress_mode = Workload.Contiguous;
      seed = 1;
    }

let merge_options =
  Solve.options ~merge:true
    ~ilp_config:{ Ilp.Solver.default_config with time_limit = 10.0 }
    ()

let check_no_proof label (r : Solve.report) =
  match r.Solve.status with
  | `Feasible | `Unknown -> ()
  | `Optimal | `Infeasible ->
    Alcotest.failf "%s: stopped run claimed a proof" label

(* A deadline already past fires the run's stop hook before any solve
   starts. *)
let test_prefired_cancel_stops_merge_solve () =
  let inst = table2_instance () in
  let t0 = Unix.gettimeofday () in
  let r = Solve.run ~options:merge_options ~deadline:(t0 -. 1.0) inst in
  let dt = Unix.gettimeofday () -. t0 in
  check_no_proof "expired deadline" r;
  Alcotest.(check bool)
    (Printf.sprintf "returned in under 2 s (%.3fs)" dt)
    true (dt < 2.0)

(* The warm start's plain solve used to get at least 1 s whatever the
   remaining budget; a 50 ms deadline must now bound it as well. *)
let test_deadline_bounds_merge_warm_start () =
  let inst = table2_instance () in
  let t0 = Unix.gettimeofday () in
  let r = Solve.run ~options:merge_options ~deadline:(t0 +. 0.05) inst in
  let dt = Unix.gettimeofday () -. t0 in
  check_no_proof "50 ms deadline" r;
  Alcotest.(check bool)
    (Printf.sprintf "returned well inside 1 s (%.3fs)" dt)
    true (dt < 1.0)

(* The time limit bounds the merge run's ILP work as a whole: the main
   solve gets only what the warm start's plain solve left, so a 1 s
   limit no longer stretches to 2 s of wall. *)
let test_time_limit_bounds_merge_run () =
  let inst = table2_instance () in
  let options =
    Solve.options ~merge:true
      ~ilp_config:{ Ilp.Solver.default_config with time_limit = 1.0 }
      ()
  in
  let t0 = Unix.gettimeofday () in
  let r = Solve.run ~options inst in
  let dt = Unix.gettimeofday () -. t0 in
  check_no_proof "1 s time limit" r;
  Alcotest.(check bool)
    (Printf.sprintf "returned in under 1.5 s (%.3fs)" dt)
    true (dt < 1.5)

(* A family the greedy warm start cannot place (k=8, 64 contiguous
   policies of 30 rules, C=40), so the run falls back on the SAT probe,
   which has no time limit of its own and took 8 s here before the run's
   limit stopped it.  A 1 s limit now bounds the whole run. *)
let test_time_limit_bounds_sat_probe () =
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.k = 8;
        num_policies = 64;
        rules = 30;
        paths = 256;
        capacity = 40;
        ingress_mode = Workload.Contiguous;
        seed = 1;
      }
  in
  let options =
    Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit = 1.0 }
      ()
  in
  let t0 = Unix.gettimeofday () in
  let r = Solve.run ~options inst in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "greedy is stuck" true
    (Baseline.greedy_assignment r.Solve.layout = None);
  check_no_proof "1 s time limit" r;
  Alcotest.(check bool)
    (Printf.sprintf "returned in under 1.5 s (%.3fs)" dt)
    true (dt < 1.5)

let suite =
  [
    Alcotest.test_case "random instances are mostly proved" `Quick
      test_random_instances_proved;
    Alcotest.test_case "pre-fired cancel stops ILP" `Quick
      test_prefired_cancel_stops_ilp;
    Alcotest.test_case "pre-fired cancel stops CDCL" `Quick
      test_prefired_cancel_stops_cdcl;
    Alcotest.test_case "node limit bounds the search" `Quick
      test_node_limit_bounds_search;
    Alcotest.test_case "time limit is wall-clock beside a busy domain" `Quick
      test_time_limit_is_wall_clock;
    Alcotest.test_case "stage times are wall-clock beside a busy domain" `Quick
      test_stage_times_are_wall_clock;
    Alcotest.test_case "pre-fired cancel stops a merge solve" `Quick
      test_prefired_cancel_stops_merge_solve;
    Alcotest.test_case "deadline bounds the merge warm start" `Quick
      test_deadline_bounds_merge_warm_start;
    Alcotest.test_case "time limit bounds the whole merge run" `Quick
      test_time_limit_bounds_merge_run;
    Alcotest.test_case "time limit bounds the SAT probe" `Quick
      test_time_limit_bounds_sat_probe;
  ]
