(* Chaos soak for the fault-tolerant runtime: a seeded churn stream
   (tenant arrivals, re-routes, policy updates, departures, capacity
   shrinks, switch/link failures) is driven through the reconciliation
   engine with injected data-plane faults — install failures, timeouts
   and a guaranteed mid-run switch loss.  Every transition report must
   name its degradation-ladder rung and pass post-event verification
   (structural + semantic + live Netsim forwarding, including rollback
   and quarantine events); any unverified transition fails the bench,
   which is what the CI chaos lane trips on. *)

let run ~title ~seed ~events ~time_limit () =
  let family =
    {
      Workload.default with
      Workload.num_policies = 6;
      rules = 8;
      paths = 24;
      capacity = 40;
      seed;
    }
  in
  let inst = Workload.build family in
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit }
      ()
  in
  let report, t_base =
    Harness.wall (fun () -> Placement.Solve.run ~options inst)
  in
  match report.Placement.Solve.solution with
  | None ->
    Printf.printf "\n== %s ==\nbase instance unsolved (%s); skipped\n" title
      (Harness.status_short report.Placement.Solve.status)
  | Some initial ->
    Printf.printf "\n== %s ==\nbase solve: %s in %ss; %d events, seed %d\n"
      title
      (Harness.status_short report.Placement.Solve.status)
      (Harness.sec t_base) events seed;
    let fault =
      Runtime.Fault_plan.make ~fail_rate:0.15 ~timeout_rate:0.08 ~seed ()
    in
    let config =
      { Runtime.Engine.deadline_s = 10.0; solve_options = options }
    in
    let eng = Runtime.Engine.create ~config ~fault initial in
    let churn = Runtime.Churn.make ~rules:6 ~seed:((seed * 13) + 5) () in
    (* The soak always traces itself: every event must leave exactly one
       closed "runtime.event" root span and the span tree must nest. *)
    let trace_was_on = Telemetry.Trace.is_enabled () in
    if not trace_was_on then Telemetry.Trace.enable ();
    let roots0 = Telemetry.Trace.root_count ~name:"runtime.event" () in
    let reports, t_run =
      Harness.wall (fun () ->
          let head = Runtime.Churn.drive churn eng (events / 3) in
          (* Guaranteed switch loss mid-run: kill the busiest live
             switch, so the soak always exercises failover (or
             quarantine) no matter what the churn weights drew. *)
          let busiest =
            let usage =
              Placement.Solution.switch_usage (Runtime.Engine.good eng)
            in
            let dead = Runtime.Engine.dead_switches eng in
            let best = ref (-1) and arg = ref (-1) in
            Array.iteri
              (fun k u ->
                if (not (List.mem k dead)) && u > !best then begin
                  best := u;
                  arg := k
                end)
              usage;
            !arg
          in
          let head =
            if busiest < 0 then head
            else
              head
              @ [
                  Runtime.Engine.handle eng
                    (Runtime.Event.Switch_fail { switch = busiest });
                ]
          in
          head @ Runtime.Churn.drive churn eng (events - List.length head))
    in
    let count p = List.length (List.filter p reports) in
    let rung_row rung =
      [
        Runtime.Report.rung_name rung;
        string_of_int
          (count (fun (r : Runtime.Report.t) -> r.Runtime.Report.rung = rung));
      ]
    in
    Harness.print_table ~title:"transitions by ladder rung"
      ~headers:[ "rung"; "events" ]
      (List.map rung_row
         [
           Runtime.Report.Noop;
           Runtime.Report.Incremental;
           Runtime.Report.Full_resolve;
           Runtime.Report.Greedy;
           Runtime.Report.Quarantine;
         ]);
    let sum f =
      List.fold_left (fun acc (r : Runtime.Report.t) -> acc + f r) 0 reports
    in
    Printf.printf
      "ops: %d attempts, %d injected failures, %d timeouts, %d retries, %d \
       forced resyncs; %d rollbacks\n"
      (sum (fun r -> r.Runtime.Report.attempts))
      (sum (fun r -> r.Runtime.Report.failures))
      (sum (fun r -> r.Runtime.Report.timeouts))
      (sum (fun r -> r.Runtime.Report.retries))
      (sum (fun r -> r.Runtime.Report.forced_resyncs))
      (count (fun r ->
           match r.Runtime.Report.applied with
           | Runtime.Report.Rolled_back _ -> true
           | _ -> false));
    Printf.printf "end state: %d live entries, quarantined=[%s], dead=[%s]\n"
      (Runtime.Engine.live_entries eng)
      (String.concat ","
         (List.map string_of_int (Runtime.Engine.quarantined eng)))
      (String.concat ","
         (List.map string_of_int (Runtime.Engine.dead_switches eng)));
    List.iteri
      (fun i (r : Runtime.Report.t) ->
        if not r.Runtime.Report.verified then
          Printf.printf "UNVERIFIED %3d: %s\n" i (Runtime.Report.signature r))
      reports;
    let unverified =
      count (fun (r : Runtime.Report.t) -> not r.Runtime.Report.verified)
    in
    if unverified > 0 then begin
      Printf.printf "chaos: %d/%d transitions FAILED verification\n" unverified
        (List.length reports);
      exit 1
    end;
    let roots = Telemetry.Trace.root_count ~name:"runtime.event" () - roots0 in
    let nesting = Telemetry.Trace.check_nesting () in
    if not trace_was_on then Telemetry.Trace.disable ();
    if roots <> List.length reports || nesting <> [] then begin
      Printf.printf "chaos: trace broken: %d/%d closed root spans\n" roots
        (List.length reports);
      List.iter (Printf.printf "  %s\n") nesting;
      exit 1
    end;
    Printf.printf "trace: %d closed root spans, nesting OK\n" roots;
    Printf.printf "chaos: all %d transitions verified in %ss\n"
      (List.length reports) (Harness.sec t_run)

(* ------------------------------------------------------------------ *)
(* Update storm: a churn stream driven entirely through the
   per-packet-consistent wave scheduler (the engine's default write
   path), with injected mid-wave operation faults, a determinism re-run,
   and a journaled pass that keeps crashing between the operations of
   consistent updates and re-running them.  Every barrier violation the
   scheduler ever observes is machine-readably reported (and fails the
   bench); so does a recovered run that diverges from the uncrashed
   reference, a missing crash quota, or a non-reproducible signature
   stream.  Results land in BENCH_update.json for the CI chaos lane. *)

let update_storm ~title ~seed ~events ~time_limit () =
  let family =
    {
      Workload.default with
      Workload.num_policies = 4;
      rules = 4;
      paths = 12;
      capacity = 40;
      seed;
    }
  in
  let inst = Workload.build family in
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit }
      ()
  in
  let report = Placement.Solve.run ~options inst in
  match report.Placement.Solve.solution with
  | None ->
    Printf.printf "\n== %s ==\nbase instance unsolved (%s); skipped\n" title
      (Harness.status_short report.Placement.Solve.status)
  | Some initial ->
    Printf.printf "\n== %s ==\n%d events, seed %d\n" title events seed;
    let config =
      { Runtime.Engine.deadline_s = 10.0; solve_options = options }
    in
    let fault () =
      Runtime.Fault_plan.make ~fail_rate:0.15 ~timeout_rate:0.08 ~seed ()
    in
    let churn_seed = (seed * 13) + 5 in
    let drive () =
      let eng = Runtime.Engine.create ~config ~fault:(fault ()) initial in
      let churn = Runtime.Churn.make ~rules:4 ~seed:churn_seed () in
      (Runtime.Churn.drive churn eng events, eng)
    in
    let metrics_were_on = Telemetry.Metrics.is_enabled () in
    if not metrics_were_on then Telemetry.Metrics.enable ();
    let c_waves = Telemetry.Metrics.counter "sdnplace_update_waves_total" in
    let c_rolls =
      Telemetry.Metrics.counter "sdnplace_update_wave_rollbacks_total"
    in
    let waves0 = Telemetry.Metrics.counter_value c_waves in
    let rolls0 = Telemetry.Metrics.counter_value c_rolls in
    let violations0 = Runtime.Update.violations_total () in
    (* reference + determinism re-run: same seeds, same signatures (the
       signature pins the wave count, so equal streams mean equal wave
       schedules too) *)
    let (ref_reports, ref_eng), t_ref = Harness.wall drive in
    let ref_sigs = List.map Runtime.Report.signature ref_reports in
    let replay_sigs = List.map Runtime.Report.signature (fst (drive ())) in
    let deterministic = ref_sigs = replay_sigs in
    if not deterministic then
      Printf.printf "update-storm: equal seeds DIVERGED on replay\n";
    let count p = List.length (List.filter p ref_reports) in
    let consistent_commits =
      count (fun (r : Runtime.Report.t) -> r.Runtime.Report.waves > 0)
    in
    let fallbacks =
      count (fun (r : Runtime.Report.t) ->
          r.Runtime.Report.applied = Runtime.Report.Committed_fallback)
    in
    let total_waves =
      List.fold_left
        (fun acc (r : Runtime.Report.t) -> acc + r.Runtime.Report.waves)
        0 ref_reports
    in
    (* crashing pass: journaled, killed at mid-apply.  A crash counts as
       mid-update when the reference committed that event through the
       wave schedule, so every operation of it was a wave's; recovery
       rolls such an update back and re-runs it from wave 0. *)
    let store, mem = Journal.Store.memory () in
    let ref_waves =
      Array.of_list
        (List.map (fun (r : Runtime.Report.t) -> r.Runtime.Report.waves)
           ref_reports)
    in
    let armed = ref None and current = ref 0 in
    let crashes = ref 0 and update_crashes = ref 0 in
    let kill kp =
      match !armed with
      | Some countdown when kp = Journal.Journaled.Mid_apply ->
        decr countdown;
        if !countdown <= 0 then begin
          armed := None;
          incr crashes;
          if ref_waves.(!current - 1) > 0 then incr update_crashes;
          raise
            (Journal.Journaled.Killed (Journal.Journaled.kill_point_name kp))
        end
      | _ -> ()
    in
    let journal = { Journal.Journaled.snapshot_every = 8 } in
    let j =
      ref
        (Journal.Journaled.create ~config ~journal ~fault:(fault ()) ~kill
           ~store initial)
    in
    let churn = ref (Runtime.Churn.make ~rules:4 ~seed:churn_seed ()) in
    let by_seq = Hashtbl.create events in
    let steps = ref 0 in
    let _, t_run =
      Harness.wall (fun () ->
          while Journal.Journaled.seq !j < events do
            incr steps;
            if !steps > events * 30 then begin
              Printf.printf "update-storm: no progress after %d steps\n" !steps;
              exit 1
            end;
            (* arm a crash roughly every fourth event, cycling the
               countdown so crashes land in early and late waves *)
            if !armed = None && !steps mod 4 = 1 then
              armed := Some (ref [| 2; 5; 9 |].(!steps / 4 mod 3));
            current := Journal.Journaled.seq !j + 1;
            let ev = Runtime.Churn.next !churn (Journal.Journaled.engine !j) in
            let client = Runtime.Churn.capture !churn in
            match Journal.Journaled.handle ~client !j ev with
            | r -> Hashtbl.replace by_seq (Journal.Journaled.seq !j) r
            | exception Journal.Journaled.Killed point -> (
              ignore mem;
              match
                Journal.Journaled.recover ~config ~journal ~kill ~store ()
              with
              | Error msg ->
                Printf.printf
                  "update-storm: recovery failed after %s crash: %s\n" point
                  msg;
                exit 1
              | Ok rcv ->
                if rcv.Journal.Journaled.divergences <> [] then begin
                  List.iter
                    (Printf.printf "  divergence: %s\n")
                    rcv.Journal.Journaled.divergences;
                  Printf.printf
                    "update-storm: recovery diverged after %s crash\n" point;
                  exit 1
                end;
                List.iter
                  (fun (s, r) -> Hashtbl.replace by_seq s r)
                  rcv.Journal.Journaled.replayed;
                j := rcv.Journal.Journaled.journaled;
                churn :=
                  (match rcv.Journal.Journaled.client with
                  | Some blob -> Runtime.Churn.restore blob
                  | None -> Runtime.Churn.make ~rules:4 ~seed:churn_seed ()))
          done)
    in
    let mismatches = ref 0 in
    List.iteri
      (fun i want_sig ->
        let got =
          match Hashtbl.find_opt by_seq (i + 1) with
          | Some r -> Runtime.Report.signature r
          | None -> "<missing>"
        in
        if got <> want_sig then begin
          incr mismatches;
          Printf.printf "MISMATCH event %d:\n  reference %s\n  recovered %s\n"
            (i + 1) want_sig got
        end)
      ref_sigs;
    let tables_equal =
      Runtime.Engine.table_snapshot (Journal.Journaled.engine !j)
      = Runtime.Engine.table_snapshot ref_eng
    in
    let violations = Runtime.Update.violations_total () - violations0 in
    let waves_counted = Telemetry.Metrics.counter_value c_waves - waves0 in
    let rollbacks = Telemetry.Metrics.counter_value c_rolls - rolls0 in
    if not metrics_were_on then Telemetry.Metrics.disable ();
    Printf.printf
      "transitions: %d (%d consistent commits, %d legacy fallbacks); %d \
       waves committed (runs+replays), %d wave rollbacks\n"
      (List.length ref_reports) consistent_commits fallbacks waves_counted
      rollbacks;
    Printf.printf "crashes: %d (%d inside consistent updates)\n" !crashes
      !update_crashes;
    Harness.write_json ~path:"BENCH_update.json"
      (Harness.Obj
         [
           ("bench", Harness.Str "update_storm");
           ("seed", Harness.Int seed);
           ("events", Harness.Int events);
           ("consistent_commits", Harness.Int consistent_commits);
           ("legacy_fallbacks", Harness.Int fallbacks);
           ("waves", Harness.Int total_waves);
           ("wave_rollbacks", Harness.Int rollbacks);
           ("crashes", Harness.Int !crashes);
           ("update_crashes", Harness.Int !update_crashes);
           ("violations", Harness.Int violations);
           ("deterministic", Harness.Bool deterministic);
           ("recovered_identical", Harness.Bool (!mismatches = 0 && tables_equal));
         ]);
    let failed = ref false in
    if violations > 0 then begin
      Printf.printf "update-storm: %d consistency VIOLATIONS observed\n"
        violations;
      failed := true
    end;
    if consistent_commits = 0 then begin
      Printf.printf "update-storm: consistent path never exercised\n";
      failed := true
    end;
    if !update_crashes < 3 then begin
      Printf.printf "update-storm: only %d mid-update crashes (< 3)\n"
        !update_crashes;
      failed := true
    end;
    if !mismatches > 0 || not tables_equal then begin
      Printf.printf "update-storm: recovered run DIVERGED from reference\n";
      failed := true
    end;
    if not deterministic then failed := true;
    if !failed then exit 1;
    Printf.printf
      "update-storm: %d transitions consistent, crash-recoverable and \
       replayable in %ss (reference %ss)\n"
      events (Harness.sec t_run) (Harness.sec t_ref)

(* ------------------------------------------------------------------ *)
(* Crash-recovery soak: the same churn stream driven through the
   journaled engine, but a seeded schedule keeps pulling the plug — at
   every kill point of the write-ahead protocol, sometimes tearing the
   last durable bytes off the log for good measure — and recovering.
   Because all engine randomness is persisted, the crashed-and-recovered
   run must end with byte-identical tables and the byte-identical report
   signature sequence of a reference run that never crashed; any
   divergence fails the bench, which is what the CI crash-recovery lane
   trips on. *)

let crash_soak ~title ~seed ~events ~time_limit () =
  let family =
    {
      Workload.default with
      Workload.num_policies = 5;
      rules = 6;
      paths = 20;
      capacity = 40;
      seed;
    }
  in
  let inst = Workload.build family in
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit }
      ()
  in
  let report = Placement.Solve.run ~options inst in
  match report.Placement.Solve.solution with
  | None ->
    Printf.printf "\n== %s ==\nbase instance unsolved (%s); skipped\n" title
      (Harness.status_short report.Placement.Solve.status)
  | Some initial ->
    Printf.printf "\n== %s ==\n%d events, seed %d\n" title events seed;
    let config =
      { Runtime.Engine.deadline_s = 10.0; solve_options = options }
    in
    let fault () =
      Runtime.Fault_plan.make ~fail_rate:0.15 ~timeout_rate:0.08 ~seed ()
    in
    let churn_seed = (seed * 13) + 5 in
    (* Reference: the identical run, never crashed, never journaled. *)
    let ref_eng = Runtime.Engine.create ~config ~fault:(fault ()) initial in
    let ref_churn = Runtime.Churn.make ~rules:6 ~seed:churn_seed () in
    let ref_reports, t_ref =
      Harness.wall (fun () -> Runtime.Churn.drive ref_churn ref_eng events)
    in
    (* Crashing run: journaled, killed on a seeded schedule, recovered. *)
    let store, mem = Journal.Store.memory () in
    let plan = Prng.create ((seed * 41) + 11) in
    let armed = ref None in
    let kill kp =
      match !armed with
      | Some (target, countdown) when kp = target ->
        let fire =
          if kp = Journal.Journaled.Mid_apply then begin
            decr countdown;
            !countdown <= 0
          end
          else true
        in
        if fire then begin
          armed := None;
          raise
            (Journal.Journaled.Killed (Journal.Journaled.kill_point_name kp))
        end
      | _ -> ()
    in
    let journal = { Journal.Journaled.snapshot_every = 4 } in
    let j =
      ref
        (Journal.Journaled.create ~config ~journal ~fault:(fault ()) ~kill
           ~store initial)
    in
    let churn = ref (Runtime.Churn.make ~rules:6 ~seed:churn_seed ()) in
    let by_seq = Hashtbl.create events in
    let crashes = ref 0 and torn = ref 0 and truncated = ref 0 in
    let kp_counts = Hashtbl.create 8 in
    let steps = ref 0 in
    let _, t_run =
      Harness.wall (fun () ->
          while Journal.Journaled.seq !j < events do
            incr steps;
            if !steps > events * 30 then begin
              Printf.printf "crash-soak: no progress after %d steps\n" !steps;
              exit 1
            end;
            (* Arm roughly one crash every three events, cycling through
               the kill points. *)
            if !armed = None && Prng.int plan 3 = 0 then
              armed :=
                Some
                  ( Prng.choose_list plan Journal.Journaled.all_kill_points,
                    ref (1 + Prng.int plan 5) );
            let ev = Runtime.Churn.next !churn (Journal.Journaled.engine !j) in
            let client = Runtime.Churn.capture !churn in
            match Journal.Journaled.handle ~client !j ev with
            | r -> Hashtbl.replace by_seq (Journal.Journaled.seq !j) r
            | exception Journal.Journaled.Killed point -> (
              incr crashes;
              Hashtbl.replace kp_counts point
                (1 + Option.value ~default:0 (Hashtbl.find_opt kp_counts point));
              (* Sometimes the power cut also tears the tail of the last
                 durable write. *)
              if Prng.int plan 2 = 0 then begin
                incr torn;
                Journal.Store.chop mem (1 + Prng.int plan 40)
              end;
              match Journal.Journaled.recover ~config ~journal ~kill ~store () with
              | Error msg ->
                Printf.printf "crash-soak: recovery failed after %s crash: %s\n"
                  point msg;
                exit 1
              | Ok rcv ->
                if rcv.Journal.Journaled.divergences <> [] then begin
                  List.iter
                    (Printf.printf "  divergence: %s\n")
                    rcv.Journal.Journaled.divergences;
                  Printf.printf "crash-soak: recovery diverged after %s crash\n"
                    point;
                  exit 1
                end;
                truncated := !truncated + rcv.Journal.Journaled.dropped_bytes;
                List.iter
                  (fun (s, r) -> Hashtbl.replace by_seq s r)
                  rcv.Journal.Journaled.replayed;
                j := rcv.Journal.Journaled.journaled;
                churn :=
                  (match rcv.Journal.Journaled.client with
                  | Some blob -> Runtime.Churn.restore blob
                  | None -> Runtime.Churn.make ~rules:6 ~seed:churn_seed ()))
          done)
    in
    Harness.print_table ~title:"crashes by kill point"
      ~headers:[ "kill point"; "crashes" ]
      (List.map
         (fun kp ->
           let name = Journal.Journaled.kill_point_name kp in
           [ name; string_of_int (Option.value ~default:0 (Hashtbl.find_opt kp_counts name)) ])
         Journal.Journaled.all_kill_points);
    Printf.printf
      "%d crashes (%d with torn tails, %d journal bytes truncated), all \
       recovered\n"
      !crashes !torn !truncated;
    let mismatches = ref 0 in
    List.iteri
      (fun i ref_r ->
        let want = Runtime.Report.signature ref_r in
        let got =
          match Hashtbl.find_opt by_seq (i + 1) with
          | Some r -> Runtime.Report.signature r
          | None -> "<missing>"
        in
        if got <> want then begin
          incr mismatches;
          Printf.printf "MISMATCH event %d:\n  reference %s\n  recovered %s\n"
            (i + 1) want got
        end)
      ref_reports;
    let tables_equal =
      Runtime.Engine.table_snapshot (Journal.Journaled.engine !j)
      = Runtime.Engine.table_snapshot ref_eng
    in
    if not tables_equal then
      Printf.printf "MISMATCH: final tables differ from the uncrashed run\n";
    if !mismatches > 0 || not tables_equal then begin
      Printf.printf "crash-soak: recovered run DIVERGED from reference\n";
      exit 1
    end;
    Printf.printf
      "crash-soak: %d events byte-identical to the uncrashed reference \
       (tables + signatures) in %ss (reference %ss)\n"
      events (Harness.sec t_run) (Harness.sec t_ref)
