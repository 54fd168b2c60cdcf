(* place_paper: cold sequential ILP placements of distinct paper-grid
   instances (fat-tree k=16, 1024 paths, 20 rules per policy, capacity
   140, 8 policies), one [Placement.Solve.run] each with the default
   presolve, cuts and feasibility pump.  Every instance is built before
   timing starts; one op is one solve.  An op is ok when it ends
   [`Optimal] and passes [Placement.Verify]. *)

let family ~seed i =
  {
    Workload.default with
    Workload.k = 16;
    num_policies = 8;
    rules = 20;
    paths = 1024;
    capacity = 140;
    seed = (seed * 100_003) + i;
  }

(* Instances are built in batches; set-up time is the median batch
   build scaled to the whole set, a steadier figure than one long
   build that a single stall can skew. *)
let batch = 10

let options = Placement.Solve.options ~engine:Placement.Solve.Ilp_engine ~jobs:1 ()

let status_name : Placement.Encode.status -> string = function
  | `Optimal -> "optimal"
  | `Feasible -> "feasible"
  | `Infeasible -> "infeasible"
  | `Unknown -> "unknown"

let run ~seed ~instances =
  let batches = (instances + batch - 1) / batch in
  let build_times = ref [] in
  let insts =
    List.concat
      (List.init batches (fun b ->
           let t0 = Meter.now () in
           let xs =
             List.init
               (min batch (instances - (b * batch)))
               (fun j ->
                 Meter.call "workload.build" (fun () ->
                     Workload.build (family ~seed ((b * batch) + j))))
           in
           build_times := (Meter.now () -. t0) :: !build_times;
           ignore (Meter.calibrate ());
           xs))
  in
  let setup_s = Meter.median !build_times *. float_of_int batches in
  let build_ms = Meter.secs "workload.build" /. float_of_int instances *. 1000.0 in
  let build_words = Meter.words "workload.build" /. float_of_int instances in
  Meter.reset ();
  let vars_fixed = Meter.gauge "sdnplace_ilp_presolve_vars_fixed" in
  let presolve_fixed = ref 0.0 in
  let errs = ref [] in
  let failed = ref 0 in
  let lines = Buffer.create 4096 in
  let chunker = Meter.chunker () in
  let batch_lats = ref [] in
  let objective = ref 0.0 in
  let nodes = ref 0 and lp_calls = ref 0 in
  List.iteri
    (fun i inst ->
      Telemetry.Metrics.set vars_fixed 0.0;
      let t0 = Meter.now () in
      let r = Meter.call "bench.solve" (fun () -> Placement.Solve.run ~options inst) in
      batch_lats := (Meter.now () -. t0) :: !batch_lats;
      presolve_fixed := !presolve_fixed +. Telemetry.Metrics.gauge_value vars_fixed;
      Meter.fold_spans ();
      (match r.Placement.Solve.ilp_stats with
      | Some s ->
        nodes := !nodes + s.Ilp.Solver.nodes;
        lp_calls := !lp_calls + s.Ilp.Solver.lp_calls
      | None -> ());
      let obj =
        match r.Placement.Solve.solution with
        | Some sol -> sol.Placement.Solution.objective
        | None -> nan
      in
      Buffer.add_string lines
        (Printf.sprintf "%d %s %.6f\n" i (status_name r.Placement.Solve.status) obj);
      if (i + 1) mod batch = 0 || i + 1 = instances then begin
        let lats = Array.of_list (List.rev !batch_lats) in
        batch_lats := [];
        Meter.close_chunk chunker ~ops:(Array.length lats)
          ~secs:(Array.fold_left ( +. ) 0.0 lats) lats
      end;
      let bad msg =
        incr failed;
        Meter.note_error errs (Printf.sprintf "instance %d: %s" i msg)
      in
      match (r.Placement.Solve.status, r.Placement.Solve.solution) with
      | `Optimal, Some sol -> (
        objective := !objective +. obj;
        match
          Placement.Verify.check ~random_samples:2 (Prng.create (seed + i))
            r.Placement.Solve.layout sol
        with
        | [] -> ()
        | v :: _ ->
          bad (Format.asprintf "verify: %a" Placement.Verify.pp_violation v))
      | st, _ -> bad ("status " ^ status_name st))
    insts;
  let n = instances in
  let per x = Meter.per n x in
  {
    Meter.attempted = n;
    failed = !failed;
    errors = List.rev !errs;
    ok = n - !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents lines));
    setup_s;
    chunks = Meter.chunks chunker;
    kernel_s = Meter.median !Meter.calib;
    rules_installed = !objective;
    counts =
      [
        ("ilp.nodes", float_of_int !nodes);
        ("ilp.lp_calls", float_of_int !lp_calls);
        ("gc.alloc_words.build", build_words *. float_of_int n);
        ("gc.alloc_words.solve", Meter.words "bench.solve");
      ];
    layer =
      Meter.library_layers ~ops:n
      @ [
          ("workload.build_ms", build_ms);
          ("ilp.presolve_vars_fixed", per !presolve_fixed);
          ("gc.alloc_mw.build", build_words /. 1e6);
          ("gc.alloc_mw.solve", per (Meter.words "bench.solve") /. 1e6);
          ("gc.alloc_mw_per_op", per (Meter.words "bench.solve") /. 1e6);
        ];
  }
