(* Observability: the telemetry subsystem end to end.

   Telemetry is off by default and costs one atomic load per record
   point; this example switches it on, solves a small instance, drives a
   few churn events through the fault-tolerant runtime, and then reads
   the results back three ways — typed handles, the Prometheus text
   exposition, and the JSONL span trace.

   Run with:  dune exec examples/observability.exe *)

let () =
  (* Switch both collectors on.  The trace seed makes span ids
     reproducible: equal-seed runs emit identical ids. *)
  Telemetry.Metrics.enable ();
  Telemetry.Trace.enable ();
  Telemetry.Trace.set_seed 42;

  (* A small Fat-Tree workload, solved under the default ILP engine.
     Every stage of the pipeline (redundancy, merge planning, layout,
     the solve itself) records its wall time, and the solver layers
     below it count pivots, nodes, LP calls and so on. *)
  let inst =
    Workload.build
      { Workload.default with Workload.num_policies = 4; rules = 8; paths = 16 }
  in
  let report = Placement.Solve.run inst in
  Format.printf "solve: %a@.@." Placement.Solve.pp_report report;

  (* Drive a few churn events through the runtime: each event opens a
     "runtime.event" span with plan/ladder/tx/verify children and
     counts its degradation-ladder rung. *)
  (match report.Placement.Solve.solution with
  | None -> ()
  | Some initial ->
    let fault =
      Runtime.Fault_plan.make ~fail_rate:0.1 ~timeout_rate:0.05 ~seed:1 ()
    in
    let eng = Runtime.Engine.create ~fault initial in
    let churn = Runtime.Churn.make ~rules:4 ~seed:7 () in
    let reports = Runtime.Churn.drive churn eng 6 in
    Format.printf "runtime: %d events, %d verified@.@." (List.length reports)
      (List.length
         (List.filter (fun (r : Runtime.Report.t) -> r.Runtime.Report.verified)
            reports)));

  (* 1. Typed access: registering a series name again returns the
     registry's existing cell, so any caller can read it back. *)
  let count name = Telemetry.Metrics.(counter_value (counter name)) in
  Format.printf "switch ops: %d attempts, %d failures, %d retries@."
    (count "sdnplace_switch_attempts_total")
    (count "sdnplace_switch_failures_total")
    (count "sdnplace_switch_retries_total");

  (* 2. Prometheus exposition: every registered series, including the
     zero-valued ones.  `sdnplace solve INSTANCE --metrics -` prints the
     same text from the CLI. *)
  let exposition = Telemetry.Metrics.render () in
  (match Telemetry.Metrics.check_exposition exposition with
  | Ok n -> Format.printf "exposition: %d distinct series, e.g.@." n
  | Error e -> Format.printf "exposition rejected: %s@." e);
  String.split_on_char '\n' exposition
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (Format.printf "  %s@.");

  (* 3. The span trace: one JSON object per span, children nested
     within their parents.  `--trace FILE` exports the same stream. *)
  let spans = Telemetry.Trace.spans () in
  Format.printf "@.trace: %d spans, %d roots, nesting %s@." (List.length spans)
    (Telemetry.Trace.root_count ())
    (match Telemetry.Trace.check_nesting () with
    | [] -> "OK"
    | v :: _ -> "BROKEN: " ^ v);
  List.iteri
    (fun i (sp : Telemetry.Trace.info) ->
      if i < 5 then
        Format.printf "  %s%s (%.1f us)@."
          (match sp.Telemetry.Trace.parent with None -> "" | Some _ -> "  ")
          sp.Telemetry.Trace.name
          (1e6 *. (sp.Telemetry.Trace.end_s -. sp.Telemetry.Trace.start_s)))
    spans
