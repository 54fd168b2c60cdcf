(* sdnplace — command-line front end for the rule-placement engine.

   Subcommands:
     generate   synthesize a workload instance and write it to a file
     info       print instance statistics (sizes, dependency graph, groups)
     solve      run the Fig. 4 pipeline and print the placement
     verify     solve, then run the structural + semantic verifier
     events     replay a seeded churn/chaos event stream on the runtime
     caching    run the traffic-driven rule-caching controller
     serve      run the multi-tenant placement daemon over framed messages
*)

open Cmdliner

(* ---------------- exit codes ---------------- *)

let exit_violations = 1
let exit_infeasible = 10
let exit_deadline = 11
let exit_internal = 12
let exit_overload = 13

let status_exit = function
  | `Optimal -> Cmd.Exit.ok
  | `Infeasible -> exit_infeasible
  | `Feasible | `Unknown -> exit_deadline

let exits =
  Cmd.Exit.info Cmd.Exit.ok
    ~doc:"on success: an optimal placement, a passing verification, or a \
          fully verified event replay."
  :: Cmd.Exit.info exit_violations
       ~doc:"when verification found violations (or an event replay left \
             unverified transitions)."
  :: Cmd.Exit.info exit_infeasible ~doc:"when the instance is infeasible."
  :: Cmd.Exit.info exit_deadline
       ~doc:"when the time budget expired before a definitive answer (a \
             best-effort placement may still have been printed)."
  :: Cmd.Exit.info exit_internal
       ~doc:
         "on an internal error, or when $(b,serve) recovery found a state \
          divergence or a shard whose snapshot is corrupt or of an unknown \
          version."
  :: Cmd.Exit.info exit_overload
       ~doc:
         "when $(b,serve --fail-on-shed) shed load: the session drained \
          cleanly but at least one event was rejected with a typed overload."
  :: Cmd.Exit.defaults

let protect body =
  try body ()
  with exn ->
    Printf.eprintf "sdnplace: internal error: %s\n%!" (Printexc.to_string exn);
    exit_internal

(* ---------------- telemetry ---------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the telemetry registry and write a Prometheus text \
           exposition of every metric series to $(docv) on exit ($(b,-) \
           for stdout).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable tracing and write the recorded spans as JSON lines to \
           $(docv) on exit ($(b,-) for stdout).")

let write_export dest content =
  match dest with
  | "-" -> print_string content
  | path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content)

(* Exports run even when the body exits through [protect]'s error path:
   a crashed run's partial metrics are exactly what one wants to see. *)
let with_telemetry metrics trace body =
  if metrics <> None then Telemetry.Metrics.enable ();
  if trace <> None then Telemetry.Trace.enable ();
  let code = body () in
  Option.iter (fun d -> write_export d (Telemetry.Metrics.render ())) metrics;
  Option.iter (fun d -> write_export d (Telemetry.Trace.export_jsonl ())) trace;
  code

(* ---------------- shared arguments ---------------- *)

(* Counts and sizes: a value outside [ok] is a usage error (exit 124),
   not an internal one. *)
let int_conv ~expect ok =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when ok n -> Ok n
        | _ -> Error (Printf.sprintf "expected %s, got %S" expect s)),
      Format.pp_print_int )

let positive_int = int_conv ~expect:"a positive integer" (fun n -> n >= 1)

let fat_tree_arity =
  int_conv ~expect:"an even integer >= 2" (fun n -> n >= 2 && n mod 2 = 0)

(* A family [Workload.build] would reject is a usage error (exit 124),
   like a bad count: [run] gets the family only once it is valid. *)
let with_family family run =
  match Workload.validate family with
  | Error msg -> `Error (true, msg)
  | Ok () -> `Ok (run family)

let instance_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INSTANCE" ~doc:"Instance file (see the Spec format).")

let merge_flag =
  Arg.(value & flag & info [ "merge" ] ~doc:"Enable cross-policy rule merging.")

let slice_flag =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:"Enable path slicing (paths must carry flow regions).")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("ilp", Placement.Solve.Ilp_engine);
             ("sat", Placement.Solve.Sat_engine);
             ("sat-opt", Placement.Solve.Sat_opt_engine);
           ])
        Placement.Solve.Ilp_engine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Solving engine: $(b,ilp) (optimizing branch & bound), $(b,sat) \
           (feasibility only), or $(b,sat-opt) (optimizing cardinality \
           descent on the SAT solver).")

let objective_arg =
  Arg.(
    value
    & opt (enum [ ("total", `Total); ("upstream", `Upstream) ]) `Total
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:
          "Objective: $(b,total) minimizes installed rules, $(b,upstream) \
           pulls drops toward the ingress.")

let time_limit_arg =
  Arg.(
    value & opt float 60.0
    & info [ "time-limit" ] ~docv:"SECONDS" ~doc:"ILP solver time limit.")

(* The one solve-option surface shared by [solve], [verify] and [events]. *)
let solve_options =
  let make merge slice engine objective time_limit =
    Placement.Solve.options ~merge ~slice ~engine
      ~objective:
        (match objective with
        | `Total -> Placement.Encode.Total_rules
        | `Upstream -> Placement.Encode.Upstream_drops)
      ~ilp_config:{ Ilp.Solver.default_config with time_limit }
      ()
  in
  Term.(
    const make $ merge_flag $ slice_flag $ engine_arg $ objective_arg
    $ time_limit_arg)

(* ---------------- generate ---------------- *)

let generate metrics trace k policies rules mergeable paths capacity seed slice
    output =
  with_family
    {
      Workload.default with
      Workload.k;
      num_policies = policies;
      rules;
      mergeable;
      paths;
      capacity;
      seed;
      slice;
    }
  @@ fun family ->
  with_telemetry metrics trace @@ fun () ->
  let inst = Workload.build family in
  (match output with
  | Some path ->
    Placement.Spec.save path inst;
    Printf.printf "wrote %s: %s\n" path
      (Format.asprintf "%a" Placement.Instance.pp inst)
  | None -> print_string (Placement.Spec.to_string inst));
  0

let generate_cmd =
  let k =
    Arg.(
      value & opt fat_tree_arity 4
      & info [ "k" ] ~docv:"K" ~doc:"Fat-Tree arity (even).")
  in
  let policies =
    Arg.(
      value & opt positive_int 8
      & info [ "policies" ] ~docv:"N" ~doc:"Ingress policies.")
  in
  let rules =
    Arg.(value & opt int 20 & info [ "rules" ] ~docv:"N" ~doc:"Rules per policy.")
  in
  let mergeable =
    Arg.(
      value & opt int 0
      & info [ "mergeable" ] ~docv:"N" ~doc:"Shared blacklist rules.")
  in
  let paths =
    Arg.(
      value & opt positive_int 64
      & info [ "paths" ] ~docv:"N" ~doc:"Routed paths.")
  in
  let capacity =
    Arg.(
      value & opt int 100
      & info [ "capacity" ] ~docv:"C" ~doc:"Per-switch ACL capacity.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a benchmark-style instance.")
    Term.(
      ret
        (const generate $ metrics_arg $ trace_arg $ k $ policies $ rules
       $ mergeable $ paths $ capacity $ seed $ slice_flag $ output))

(* ---------------- info ---------------- *)

let info_run metrics trace file =
  with_telemetry metrics trace @@ fun () ->
  let inst = Placement.Spec.load file in
  Format.printf "%a@." Placement.Instance.pp inst;
  let layout = Placement.Layout.build inst in
  Format.printf "%a@." Placement.Layout.pp_stats layout;
  List.iter
    (fun (i, q) ->
      let dep = Placement.Depgraph.build q in
      Format.printf "policy %d: %d rules (%d drops), %a@." i
        (Acl.Policy.size q)
        (List.length (Acl.Policy.drops q))
        Placement.Depgraph.pp dep)
    inst.Placement.Instance.policies;
  let groups = Placement.Merge.find_groups inst in
  Format.printf "mergeable groups: %d@." (List.length groups);
  List.iter
    (fun (g : Placement.Merge.group) ->
      Format.printf "  group %d: %a %a across %d policies@." g.Placement.Merge.gid
        Acl.Rule.pp_action g.Placement.Merge.action Ternary.Field.pp
        g.Placement.Merge.field
        (List.length g.Placement.Merge.members))
    groups;
  0

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print instance statistics.")
    Term.(const info_run $ metrics_arg $ trace_arg $ instance_arg)

(* ---------------- solve ---------------- *)

let print_solution (sol : Placement.Solution.t) =
  Format.printf "%a@." Placement.Solution.pp_summary sol;
  Format.printf "physical TCAM estimate: %d slots (range + tag expansion)@."
    (Placement.Solution.tcam_slots sol);
  let { Placement.Tables.netsim; splits } = Placement.Tables.to_netsim sol in
  if splits > 0 then Format.printf "(%d merged entries split for ordering)@." splits;
  Array.iteri
    (fun k _ ->
      let table = Netsim.table netsim k in
      if table <> [] then begin
        Format.printf "switch %d (%d entries):@." k (List.length table);
        List.iter
          (fun (e : Netsim.entry) ->
            Format.printf "  tags {%s} %a %a@."
              (String.concat "," (List.map string_of_int e.Netsim.tags))
              Acl.Rule.pp_action e.Netsim.rule.Acl.Rule.action Ternary.Field.pp
              e.Netsim.rule.Acl.Rule.field)
          table
      end)
    sol.Placement.Solution.per_switch

let solve_run metrics trace file options show_tables =
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let inst = Placement.Spec.load file in
  let report = Placement.Solve.run ~options inst in
  Format.printf "%a@." Placement.Solve.pp_report report;
  (match report.Placement.Solve.ilp_stats with
  | Some s ->
    Format.printf "ilp: %d nodes, %d LP calls, root bound %.1f@."
      s.Ilp.Solver.nodes s.Ilp.Solver.lp_calls s.Ilp.Solver.root_bound
  | None -> ());
  (match report.Placement.Solve.sat_conflicts with
  | Some c -> Format.printf "sat: %d conflicts@." c
  | None -> ());
  (match report.Placement.Solve.solution with
  | Some sol -> if show_tables then print_solution sol
  | None -> ());
  status_exit report.Placement.Solve.status

let tables_flag =
  Arg.(
    value & flag
    & info [ "tables" ] ~doc:"Print the final per-switch rule tables.")

let solve_cmd =
  Cmd.v
    (Cmd.info "solve" ~exits ~doc:"Place the rules and print the result.")
    Term.(
      const solve_run $ metrics_arg $ trace_arg $ instance_arg $ solve_options
      $ tables_flag)

(* ---------------- balance ---------------- *)

let balance_run metrics trace file time_limit =
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let inst = Placement.Spec.load file in
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit }
      ()
  in
  match Placement.Balance.min_max_usage ~options inst with
  | None ->
    Format.printf "infeasible even at the declared capacities@.";
    exit_infeasible
  | Some { Placement.Balance.budget; report; probes } ->
    Format.printf
      "minimal max-occupancy: %d entries per switch (%d probes)@." budget
      probes;
    (match report.Placement.Solve.solution with
    | Some sol ->
      Format.printf "%a@." Placement.Solution.pp_summary sol;
      Format.printf "per-switch usage: %s@."
        (String.concat " "
           (Array.to_list
              (Array.map string_of_int (Placement.Solution.switch_usage sol))))
    | None -> ());
    0

let balance_cmd =
  Cmd.v
    (Cmd.info "balance" ~exits
       ~doc:"Minimize the maximum per-switch table occupancy (capacity slack).")
    Term.(
      const balance_run $ metrics_arg $ trace_arg $ instance_arg
      $ time_limit_arg)

(* ---------------- verify ---------------- *)

let verify_run metrics trace file options samples =
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let inst = Placement.Spec.load file in
  let report = Placement.Solve.run ~options inst in
  Format.printf "%a@." Placement.Solve.pp_report report;
  match report.Placement.Solve.solution with
  | None -> status_exit report.Placement.Solve.status
  | Some sol ->
    let violations =
      Placement.Verify.check ~random_samples:samples (Prng.create 0xC0FFEE)
        report.Placement.Solve.layout sol
    in
    if violations = [] then begin
      (match Placement.Verify.exact sol with
      | Some [] ->
        Format.printf
          "verification passed (structural + sampled + exact region proof)@."
      | Some (v :: _) ->
        Format.printf "exact verifier found a divergence: %a@."
          Placement.Verify.pp_violation v
      | None ->
        Format.printf
          "verification passed (structural + sampled; exact proof skipped: \
           cube budget)@.");
      0
    end
    else begin
      Format.printf "%d violations:@." (List.length violations);
      List.iter
        (fun v -> Format.printf "  %a@." Placement.Verify.pp_violation v)
        violations;
      exit_violations
    end

let verify_cmd =
  let samples =
    Arg.(
      value & opt int 50
      & info [ "samples" ] ~docv:"N" ~doc:"Random probe packets per path.")
  in
  Cmd.v
    (Cmd.info "verify" ~exits ~doc:"Solve and verify the placement end to end.")
    Term.(
      const verify_run $ metrics_arg $ trace_arg $ instance_arg $ solve_options
      $ samples)

(* ---------------- events ---------------- *)

(* Generate-and-handle through the journaled engine: the churn state is
   captured {e after} each draw and logged with the event, so a resumed
   run continues the stream exactly where a crash cut it. *)
let rec drive_journaled churn j n acc =
  if n <= 0 then List.rev acc
  else
    let ev = Runtime.Churn.next churn (Journal.Journaled.engine j) in
    let r = Journal.Journaled.handle ~client:(Runtime.Churn.capture churn) j ev in
    drive_journaled churn j (n - 1) (r :: acc)

let summarize_events ?(pre_failed = false) reports eng =
  let n = List.length reports in
  List.iteri (fun i r -> Format.printf "%3d  %a@." i Runtime.Report.pp r) reports;
  let count p = List.length (List.filter p reports) in
  Format.printf "@.%d events: %s@." n
    (String.concat ", "
       (List.map
          (fun rung ->
            Printf.sprintf "%s=%d" (Runtime.Report.rung_name rung)
              (count (fun (r : Runtime.Report.t) -> r.Runtime.Report.rung = rung)))
          [
            Runtime.Report.Noop;
            Runtime.Report.Incremental;
            Runtime.Report.Full_resolve;
            Runtime.Report.Greedy;
            Runtime.Report.Quarantine;
          ]));
  Format.printf "rollbacks=%d quarantined=[%s] live-entries=%d@."
    (count (fun (r : Runtime.Report.t) ->
         match r.Runtime.Report.applied with
         | Runtime.Report.Rolled_back _ -> true
         | _ -> false))
    (String.concat ","
       (List.map string_of_int (Runtime.Engine.quarantined eng)))
    (Runtime.Engine.live_entries eng);
  Format.printf "update-waves=%d legacy-fallbacks=%d@."
    (List.fold_left
       (fun acc (r : Runtime.Report.t) -> acc + r.Runtime.Report.waves)
       0 reports)
    (count (fun (r : Runtime.Report.t) ->
         r.Runtime.Report.applied = Runtime.Report.Committed_fallback));
  let unverified =
    count (fun (r : Runtime.Report.t) -> not r.Runtime.Report.verified)
  in
  if unverified = 0 && not pre_failed then begin
    Format.printf "all %d transitions verified@." n;
    Cmd.Exit.ok
  end
  else begin
    if unverified > 0 then
      Format.printf "%d transitions FAILED verification@." unverified;
    exit_violations
  end

let events_run metrics trace file options num_events seed fail_rate
    timeout_rate deadline rules journal resume =
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let config =
    {
      Runtime.Engine.default_config with
      Runtime.Engine.deadline_s = deadline;
      solve_options = options;
    }
  in
  let churn_seed = (seed * 31) + 7 in
  match (resume, journal) with
  | true, None ->
    Printf.eprintf "sdnplace: --resume requires --journal DIR\n%!";
    exit_internal
  | true, Some dir -> (
    let store = Journal.Store.file ~dir in
    match Journal.Journaled.recover ~config ~store () with
    | Error msg ->
      Printf.eprintf "sdnplace: cannot resume from %s: %s\n%!" dir msg;
      exit_internal
    | Ok rcv ->
      Format.printf "resumed from %s: snapshot seq %d, %d events replayed%s@."
        dir rcv.Journal.Journaled.snapshot_seq
        (List.length rcv.Journal.Journaled.replayed)
        (match rcv.Journal.Journaled.resolution with
        | None -> ""
        | Some (Journal.Journaled.Replayed s) ->
          Printf.sprintf ", interrupted event %d re-executed" s
        | Some (Journal.Journaled.Rolled_back s) ->
          Printf.sprintf ", interrupted event %d rolled back and re-executed" s
        | Some (Journal.Journaled.Rolled_forward s) ->
          Printf.sprintf ", interrupted event %d rolled forward" s);
      if rcv.Journal.Journaled.dropped_bytes > 0 then
        Format.printf "truncated %d bytes of torn journal tail@."
          rcv.Journal.Journaled.dropped_bytes;
      List.iter
        (fun d -> Format.printf "replay divergence: %s@." d)
        rcv.Journal.Journaled.divergences;
      let j = rcv.Journal.Journaled.journaled in
      let churn =
        match rcv.Journal.Journaled.client with
        | Some blob -> Runtime.Churn.restore blob
        | None -> Runtime.Churn.make ~rules ~seed:churn_seed ()
      in
      let reports = drive_journaled churn j num_events [] in
      summarize_events
        ~pre_failed:(rcv.Journal.Journaled.divergences <> [])
        reports
        (Journal.Journaled.engine j))
  | false, _ -> (
    match file with
    | None ->
      Printf.eprintf "sdnplace: INSTANCE is required unless --resume is given\n%!";
      exit_internal
    | Some file -> (
      let inst = Placement.Spec.load file in
      let report = Placement.Solve.run ~options inst in
      match report.Placement.Solve.solution with
      | None ->
        Format.printf "no initial placement: %a@." Placement.Encode.pp_status
          report.Placement.Solve.status;
        status_exit report.Placement.Solve.status
      | Some initial -> (
        Format.printf "initial placement: %a@." Placement.Solution.pp_summary
          initial;
        let fault = Runtime.Fault_plan.make ~fail_rate ~timeout_rate ~seed () in
        let churn = Runtime.Churn.make ~rules ~seed:churn_seed () in
        match journal with
        | None ->
          let eng = Runtime.Engine.create ~config ~fault initial in
          let reports = Runtime.Churn.drive churn eng num_events in
          summarize_events reports eng
        | Some dir ->
          let store = Journal.Store.file ~dir in
          let j = Journal.Journaled.create ~config ~fault ~store initial in
          Format.printf "journaling to %s@." dir;
          let reports = drive_journaled churn j num_events [] in
          summarize_events reports (Journal.Journaled.engine j))))

let events_cmd =
  let num_events =
    Arg.(
      value & opt int 50
      & info [ "events" ] ~docv:"N" ~doc:"Number of churn events to replay.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for churn and fault injection; equal seeds replay the \
                same run.")
  in
  let fail_rate =
    Arg.(
      value & opt float 0.1
      & info [ "fail-rate" ] ~docv:"P"
          ~doc:"Per-operation probability of an injected switch failure.")
  in
  let timeout_rate =
    Arg.(
      value & opt float 0.05
      & info [ "timeout-rate" ] ~docv:"P"
          ~doc:"Per-operation probability of an injected switch timeout.")
  in
  let deadline =
    Arg.(
      value & opt float 5.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per event before the degradation ladder \
                falls through to cheaper rungs.")
  in
  let rules =
    Arg.(
      value & opt int 6
      & info [ "rules" ] ~docv:"N" ~doc:"Rules per generated tenant policy.")
  in
  let instance =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"INSTANCE"
          ~doc:
            "Instance file (see the Spec format).  Required unless \
             $(b,--resume) is given, in which case the state comes from the \
             journal.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Directory for the crash-safe write-ahead journal.  Every event \
             is durably logged (begin record, transaction intent/commit, \
             commit record, each fsynced) and the full engine state is \
             periodically snapshotted with log compaction, so an \
             interrupted replay can be continued with $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a previous $(b,--journal) run: load the latest \
             snapshot, replay the write-ahead log (a torn or corrupt tail \
             is truncated, not fatal), resolve the event the crash \
             interrupted (committed transactions are rolled forward, \
             uncommitted ones rolled back), then continue the same churn \
             stream for $(b,--events) more events.")
  in
  Cmd.v
    (Cmd.info "events" ~exits
       ~doc:
         "Replay a seeded churn/chaos event stream (tenant arrivals, \
          re-routes, policy updates, departures, capacity shrinks, \
          switch/link failures) against the fault-tolerant runtime, with \
          injected data-plane faults, and verify every transition.  With \
          $(b,--journal) the replay is crash-safe: state is write-ahead \
          logged and snapshotted, and $(b,--resume) continues an \
          interrupted run.")
    Term.(
      const events_run $ metrics_arg $ trace_arg $ instance $ solve_options
      $ num_events $ seed $ fail_rate $ timeout_rate $ deadline $ rules
      $ journal $ resume)

(* ---------------- caching ---------------- *)

let caching_run metrics trace policies rules paths capacity seed epochs packets
    alpha drift probes hw_frac decay static_mode journal resume =
  with_family
    {
      Workload.default with
      Workload.num_policies = policies;
      rules;
      paths;
      capacity;
      seed;
    }
  @@ fun family ->
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let cfg =
    {
      Traffic.Controller.family;
      epochs;
      packets;
      alpha;
      drift;
      probes;
      hw_frac;
      decay;
      adaptive = not static_mode;
    }
  in
  let finish t =
    let reps = Traffic.Controller.reports t in
    List.iter (fun r -> print_endline (Traffic.Controller.line r)) reps;
    let hits, misses, dhits =
      List.fold_left
        (fun (h, m, d) (r : Traffic.Controller.epoch_report) ->
          ( h + r.Traffic.Controller.e_hits,
            m + r.Traffic.Controller.e_misses,
            d + r.Traffic.Controller.e_dhits ))
        (0, 0, 0) reps
    in
    let total = hits + misses in
    Printf.printf "epochs=%d hit-rate=%.4f delegated-hits=%d violations=%d\n"
      (List.length reps)
      (if total = 0 then 1.0 else float_of_int hits /. float_of_int total)
      dhits
      (Traffic.Controller.violations t);
    if Traffic.Controller.violations t = 0 then 0 else exit_violations
  in
  match (resume, journal) with
  | true, None ->
    Printf.eprintf "sdnplace: --resume requires --journal DIR\n%!";
    exit_internal
  | true, Some dir -> (
    let store = Journal.Store.file ~dir in
    match Traffic.Controller.resume ~store cfg with
    | Error msg ->
      Printf.eprintf "sdnplace: cannot resume from %s: %s\n%!" dir msg;
      exit_internal
    | Ok t ->
      Printf.printf "resumed at epoch %d\n" (Traffic.Controller.epoch t);
      ignore (Traffic.Controller.run t);
      finish t)
  | false, _ ->
    let store = Option.map (fun dir -> Journal.Store.file ~dir) journal in
    let t = Traffic.Controller.create ?store cfg in
    ignore (Traffic.Controller.run t);
    finish t

let caching_cmd =
  let policies =
    Arg.(
      value & opt positive_int 4
      & info [ "policies" ] ~docv:"N" ~doc:"Ingress policies.")
  in
  let rules =
    Arg.(value & opt int 10 & info [ "rules" ] ~docv:"N" ~doc:"Rules per policy.")
  in
  let paths =
    Arg.(
      value & opt positive_int 24
      & info [ "paths" ] ~docv:"N" ~doc:"Routed paths.")
  in
  let capacity =
    Arg.(
      value & opt int 80
      & info [ "capacity" ] ~docv:"C" ~doc:"Per-switch ACL capacity.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the workload and the drifting traffic; equal seeds give \
             byte-identical epoch reports.")
  in
  let epochs =
    Arg.(
      value & opt int 10
      & info [ "epochs" ] ~docv:"N" ~doc:"Traffic epochs to run.")
  in
  let packets =
    Arg.(
      value & opt int 4096
      & info [ "packets" ] ~docv:"N" ~doc:"Packets per epoch.")
  in
  let alpha =
    Arg.(
      value & opt float 1.3
      & info [ "alpha" ] ~docv:"A" ~doc:"Zipf skew of the flow popularity.")
  in
  let drift =
    Arg.(
      value & opt float 0.125
      & info [ "drift" ] ~docv:"D"
          ~doc:
            "Per-epoch popularity drift rate in [0,1]: the expected fraction \
             of adjacent flow ranks transposed between epochs.")
  in
  let probes =
    Arg.(
      value & opt int 4
      & info [ "probes" ] ~docv:"N" ~doc:"Probe packets walked per flow per epoch.")
  in
  let hw_frac =
    Arg.(
      value & opt float 0.3
      & info [ "hw-frac" ] ~docv:"F"
          ~doc:
            "Hardware TCAM size as a fraction of the mean non-empty \
             full-table size — below 1.0 the cache is under real eviction \
             pressure.")
  in
  let decay =
    Arg.(
      value
      & opt float Traffic.Cache.default_decay
      & info [ "decay" ] ~docv:"F"
          ~doc:"Per-epoch popularity retention factor in [0,1].")
  in
  let static_mode =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Place the cache once and never adapt (no decay, eviction or \
             delegation rebalancing) — the baseline the adaptive \
             controller is measured against.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Directory for the crash-safe snapshot: every epoch boundary \
             is snapshotted, so an interrupted run can be continued with \
             $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a previous $(b,--journal) run from its latest snapshot; \
             the completed run's epoch reports are byte-identical to an \
             uninterrupted run with the same flags.")
  in
  Cmd.v
    (Cmd.info "caching" ~exits
       ~doc:
         "Run the traffic-driven rule-caching controller: a drifting-Zipf \
          packet stream walks a placement solved once, whose switches hold \
          only a hardware-sized cache of their full tables, with cold rules \
          evicted and overflow drops delegated to on-path neighbors.  \
          Prints one report line per epoch and a final summary; exits 1 if \
          any differential or invariant violation was observed.")
    Term.(
      ret
        (const caching_run $ metrics_arg $ trace_arg $ policies $ rules $ paths
       $ capacity $ seed $ epochs $ packets $ alpha $ drift $ probes $ hw_frac
       $ decay $ static_mode $ journal $ resume))

(* ---------------- serve ---------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let serve_stores dir i =
  match dir with
  | None ->
    let journal, _ = Journal.Store.memory () in
    let intake, _ = Journal.Store.memory () in
    { Serve.Shard.journal; intake }
  | Some dir ->
    let shard_dir = Filename.concat dir (Printf.sprintf "shard-%d" i) in
    mkdir_p shard_dir;
    {
      Serve.Shard.journal =
        Journal.Store.file ~dir:(Filename.concat shard_dir "journal");
      intake = Journal.Store.file ~dir:(Filename.concat shard_dir "intake");
    }

let serve_run metrics trace dir socket seed shards queue_limit
    tenant_queue_limit capacity jobs batch_fsync max_sessions fail_on_shed =
  with_telemetry metrics trace @@ fun () ->
  protect @@ fun () ->
  let config =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.seed;
      shards;
      queue_limit;
      tenant_queue_limit;
      jobs;
      batch_fsync;
      shard =
        { Serve.Shard.default_config with Serve.Shard.capacity };
    }
  in
  match Serve.Daemon.start ~config ~stores:(serve_stores dir) () with
  | Error { Serve.Daemon.shard; reason } ->
    Printf.eprintf
      "sdnplace: shard %d: %s; refusing to start over its state\n%!" shard
      reason;
    exit_internal
  | Ok { Serve.Daemon.divergences = _ :: _ as ds; _ } ->
    List.iter (Printf.eprintf "sdnplace: recovery divergence: %s\n%!") ds;
    exit_internal
  | Ok started ->
    if started.Serve.Daemon.recovered_shards > 0 then
      Printf.eprintf
        "sdnplace: recovered %d/%d shards (%d events replayed, %d acked \
         tickets re-queued)\n%!"
        started.Serve.Daemon.recovered_shards shards
        started.Serve.Daemon.replayed started.Serve.Daemon.reissued;
    let daemon = started.Serve.Daemon.daemon in
    let serve ?listen ?session () =
      let served =
        Serve.Daemon.serve_sessions daemon ?listen ?session ~max_sessions ()
      in
      Printf.eprintf "sdnplace: served %d sessions, %d requests, %s\n%!"
        served.Serve.Daemon.sessions served.Serve.Daemon.total_requests
        (if served.Serve.Daemon.drain_requested then "drained on request"
         else "drained on disconnect")
    in
    (match socket with
    | None -> serve ~session:(Unix.stdin, Unix.stdout) ()
    | Some path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd max_sessions;
          Printf.eprintf "sdnplace: listening on %s (up to %d sessions)\n%!"
            path max_sessions;
          serve ~listen:fd ()));
    Serve.Daemon.shutdown daemon;
    (match Serve.Daemon.stats_reply daemon with
    | Serve.Wire.Stats_reply { tenants; accepted; applied; quarantined; shed;
                               pending } ->
      Printf.eprintf
        "sdnplace: %d tenants, %d accepted (%d applied, %d quarantined \
         tickets), %d shed, %d pending\n%!"
        tenants accepted applied quarantined shed pending
    | _ -> ());
    if fail_on_shed && Serve.Daemon.shed daemon > 0 then exit_overload else 0

let serve_cmd =
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "State directory: one journal + intake store pair per shard \
             under $(docv)/shard-N/.  A restart over the same directory \
             crash-resumes every shard (events replayed from the \
             write-ahead journal, acked-but-unprocessed tickets re-queued) \
             before accepting traffic.  Without it state is in-memory and \
             dies with the process.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket and serve up to \
             $(b,--max-sessions) concurrent client sessions over one \
             admission path; default is one session over stdin/stdout, \
             served by the same loop.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Translation seed (ingress allocation, path choice, policy \
             synthesis).  Must match across restarts of the same $(b,--dir); \
             equal seeds and equal request streams give byte-identical \
             final state.")
  in
  let shards =
    Arg.(
      value & opt positive_int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Independently journaled tenant regions (tenant t lands on \
             shard t mod $(docv)).")
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Daemon-wide pending-event cap; events over it are shed with a \
             typed global overload rejection.")
  in
  let tenant_queue_limit =
    Arg.(
      value & opt int 8
      & info [ "tenant-queue-limit" ] ~docv:"N"
          ~doc:
            "Per-tenant pending-event cap — the admission half of the \
             bulkhead that keeps a flooding tenant from starving the rest.")
  in
  let capacity =
    Arg.(
      value & opt int 30
      & info [ "capacity" ] ~docv:"C"
          ~doc:"Per-switch ACL capacity of each shard's fat-tree.")
  in
  let jobs =
    Arg.(
      value & opt positive_int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Worker domains for shard batch execution.  $(docv)=1 is the \
             fully sequential reference; any higher value overlaps \
             independent shards' solve and journal-commit work while \
             producing byte-identical replies and state — equal seeds give \
             equal results at every $(docv).")
  in
  let batch_fsync =
    Arg.(
      value & opt int 1
      & info [ "batch-fsync" ] ~docv:"N"
          ~doc:
            "Group-commit window for the intake log: stage up to $(docv) \
             admissions per covering fsync instead of one fsync each.  An \
             event is still acked only after a barrier covers its record — \
             $(docv)=1 keeps the sync-every-admission behaviour.  Stdio \
             and socket sessions alike commit once per poll cycle: the \
             requests that arrive in one read share their fsyncs.")
  in
  let max_sessions =
    Arg.(
      value & opt positive_int 4
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Concurrent sessions accepted on $(b,--socket).  Without \
             it the one stdin/stdout session is the only one.")
  in
  let fail_on_shed =
    Arg.(
      value & flag
      & info [ "fail-on-shed" ]
          ~doc:
            "Exit 13 after a clean drain if any event was shed — for \
             harnesses that treat overload as a failure.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the overload-safe, crash-resumable multi-tenant placement \
          daemon.  Requests and replies are length-prefixed CRC-framed \
          marshaled messages (the same framing as the write-ahead journal) \
          over stdin/stdout or $(b,--socket).  An event is acked only after \
          its intake record is fsynced, so an ack survives any crash; \
          per-tenant circuit breakers pin misbehaving tenants to the cheap \
          greedy rung; the session ends with a graceful drain (on an \
          explicit $(i,Drain) request or on disconnect) that processes \
          every acked event and snapshots every shard.  Stdin/stdout is \
          served like a socket session: the requests that arrive in one \
          read are admitted before any is processed, so a piped burst \
          larger than the queue caps gets typed overload rejections.  A \
          shard whose journal snapshot is corrupt or of an unknown \
          version is never booted fresh: the start is refused and no \
          store is written.  Exit codes: 0 clean drain, 12 recovery \
          divergence or unreadable snapshot, 13 shed under \
          $(b,--fail-on-shed).")
    Term.(
      const serve_run $ metrics_arg $ trace_arg $ dir $ socket $ seed $ shards
      $ queue_limit $ tenant_queue_limit $ capacity $ jobs $ batch_fsync
      $ max_sessions $ fail_on_shed)

let main_cmd =
  Cmd.group
    (Cmd.info "sdnplace" ~version:"1.0.0" ~exits
       ~doc:"ILP-based distributed firewall rule placement for SDNs (DSN'14).")
    [
      generate_cmd; info_cmd; solve_cmd; verify_cmd; balance_cmd; events_cmd;
      caching_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
