(* The telemetry subsystem: counter/histogram semantics must hold under
   concurrent domain writers, span trees must nest with
   seed-deterministic ids, and — the load-bearing guarantee —
   enabling telemetry must not perturb a deterministic run. *)

module Metrics = Telemetry.Metrics
module Trace = Telemetry.Trace

(* ---------------- registry semantics under concurrent domains -------- *)

let test_concurrent_writers () =
  let r = Metrics.create_registry () in
  Metrics.enable ~registry:r ();
  let c = Metrics.counter ~registry:r "t_conc_total" in
  let h =
    Metrics.histogram ~registry:r ~buckets:[| 0.5; 1.5; 2.5 |] "t_conc_hist"
  in
  let domains = 4 and per = 20_000 in
  let obs d i = float_of_int ((d + i) mod 4) in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Metrics.incr c;
              Metrics.observe h (obs d i)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "counter: no lost increments" (domains * per)
    (Metrics.counter_value c);
  let s = Metrics.snapshot h in
  Alcotest.(check int) "histogram count" (domains * per) (Util.observations h);
  Alcotest.(check bool) "rendered _count is every observation" true
    (List.mem
       (Printf.sprintf "t_conc_hist_count %d" (domains * per))
       (String.split_on_char '\n' (Metrics.render ~registry:r ())));
  (* Replay the same observation stream sequentially: bucketing and the
     (exactly representable) sum must agree. *)
  let want_counts = Array.make 4 0 in
  let want_sum = ref 0.0 in
  for d = 0 to domains - 1 do
    for i = 1 to per do
      let x = obs d i in
      let b = if x <= 0.5 then 0 else if x <= 1.5 then 1 else if x <= 2.5 then 2 else 3 in
      want_counts.(b) <- want_counts.(b) + 1;
      want_sum := !want_sum +. x
    done
  done;
  Alcotest.(check (array int)) "per-bucket counts" want_counts s.Metrics.counts;
  Alcotest.(check (float 1e-6)) "sum" !want_sum s.Metrics.sum

let test_disabled_is_inert () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter ~registry:r "t_off_total" in
  let h = Metrics.histogram ~registry:r "t_off_seconds" in
  Metrics.incr c;
  Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Util.observations h);
  Metrics.enable ~registry:r ();
  Metrics.incr c;
  Alcotest.(check int) "counter live after enable" 1 (Metrics.counter_value c)

let test_registration_idempotent () =
  let r = Metrics.create_registry () in
  Metrics.enable ~registry:r ();
  let a = Metrics.counter ~registry:r "t_same_total" in
  let b = Metrics.counter ~registry:r "t_same_total" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "same cell" 2 (Metrics.counter_value a);
  (match Metrics.gauge ~registry:r "t_same_total" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  match Metrics.counter ~registry:r "bad name!" with
  | _ -> Alcotest.fail "malformed name accepted"
  | exception Invalid_argument _ -> ()

let test_label_cap_bounds_cardinality () =
  let r = Metrics.create_registry () in
  Metrics.enable ~registry:r ();
  (* Unbounded by default: every new label set gets its own series. *)
  let free =
    List.init 4 (fun t ->
        Metrics.counter ~registry:r
          ~labels:[ ("tenant", string_of_int t) ]
          "t_free_total")
  in
  List.iter Metrics.incr free;
  Alcotest.(check (list int)) "unbounded by default" [ 1; 1; 1; 1 ]
    (List.map Metrics.counter_value free);
  Metrics.set_label_cap ~registry:r (Some 2);
  let tenant t =
    Metrics.counter ~registry:r ~labels:[ ("tenant", t) ] "t_cap_total"
  in
  let a = tenant "1" and b = tenant "2" in
  Metrics.incr a;
  Metrics.incr b;
  (* The registry is full for this name: new label sets land on the
     overflow series instead of growing it. *)
  let o1 = tenant "3" and o2 = tenant "4" in
  Metrics.incr o1;
  Metrics.incr o2;
  Alcotest.(check int) "overflow aggregates new label sets" 2
    (Metrics.counter_value o1);
  Alcotest.(check int) "capped series untouched" 1 (Metrics.counter_value a);
  Alcotest.(check int) "re-registration still hits its own cell" 2
    (let a' = tenant "1" in
     Metrics.incr a';
     Metrics.counter_value a);
  (* Unlabeled series and other names are unaffected by the cap. *)
  let plain = Metrics.counter ~registry:r "t_cap_plain_total" in
  Metrics.incr plain;
  Alcotest.(check int) "unlabeled unaffected" 1 (Metrics.counter_value plain);
  let series = Metrics.series_names ~registry:r () in
  let has_sub sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "overflow series rendered" true
    (List.exists (has_sub Metrics.overflow_value) series);
  Alcotest.(check int) "cardinality bounded at cap + overflow" 3
    (List.length (List.filter (has_sub "t_cap_total") series));
  (* Render of the capped registry still validates. *)
  (match Metrics.check_exposition ~registry:r (Metrics.render ~registry:r ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "capped render rejected: %s" e);
  (* Lifting the cap restores normal registration. *)
  Metrics.set_label_cap ~registry:r None;
  let c5 = tenant "5" in
  Metrics.incr c5;
  Alcotest.(check int) "fresh series after uncapping" 1
    (Metrics.counter_value c5)

(* ---------------- histogram merge = recording the union -------------- *)

(* Observations quantized to multiples of 0.25 so sums are exact in
   binary floating point and the equality check can be [=]. *)
(* ---------------- exposition ----------------------------------------- *)

let test_render_checks_out () =
  (* The default registry carries every statically registered series of
     every linked layer; its own rendering must validate, and the stack
     must expose a healthy number of distinct series. *)
  let text = Metrics.render () in
  match Metrics.check_exposition text with
  | Error e -> Alcotest.failf "self-render rejected: %s" e
  | Ok n ->
    Alcotest.(check bool)
      (Printf.sprintf "at least 25 series (got %d)" n)
      true (n >= 25);
    List.iter
      (fun layer ->
        Alcotest.(check bool)
          (Printf.sprintf "series for %s present" layer)
          true
          (List.exists
             (fun s ->
               String.length s >= String.length layer
               && String.sub s 0 (String.length layer) = layer)
             (Metrics.series_names ())))
      [
        "sdnplace_simplex_";
        "sdnplace_ilp_";
        "sdnplace_cdcl_";
        "sdnplace_runtime_";
        "sdnplace_journal_";
      ]

let test_checker_rejects_strays () =
  (match Metrics.check_exposition "sdnplace_no_such_series 1\n" with
  | Ok _ -> Alcotest.fail "unknown series accepted"
  | Error _ -> ());
  let text = Metrics.render () in
  let dup =
    match String.index_opt text '\n' with
    | Some _ ->
      (* Duplicate the first sample line. *)
      let lines = String.split_on_char '\n' text in
      let sample =
        List.find (fun l -> l <> "" && l.[0] <> '#') lines
      in
      text ^ sample ^ "\n"
    | None -> Alcotest.fail "empty exposition"
  in
  match Metrics.check_exposition dup with
  | Ok _ -> Alcotest.fail "duplicate series accepted"
  | Error _ -> ()

(* ---------------- spans ---------------------------------------------- *)

let span_tree () =
  Trace.with_span "root" @@ fun () ->
  Trace.with_span "child" (fun () -> ());
  Trace.with_span "child" (fun () -> ());
  Trace.with_span "other" (fun () -> Trace.with_span "leaf" (fun () -> ()))

let ids () = List.map (fun (i : Trace.info) -> i.Trace.id) (Trace.spans ())

let test_span_ids_deterministic () =
  Trace.reset ();
  Trace.enable ();
  Trace.set_seed 42;
  span_tree ();
  let first = ids () in
  Alcotest.(check int) "five spans" 5 (List.length first);
  Alcotest.(check (list string)) "nesting clean" [] (Trace.check_nesting ());
  Trace.reset ();
  Trace.set_seed 42;
  span_tree ();
  Alcotest.(check bool) "equal seeds, equal ids" true (ids () = first);
  Trace.reset ();
  Trace.set_seed 43;
  span_tree ();
  Alcotest.(check bool) "different seed, different ids" true (ids () <> first);
  (* Sibling spans sharing a name are distinguished by occurrence. *)
  let distinct = List.sort_uniq compare (ids ()) in
  Alcotest.(check int) "ids distinct" 5 (List.length distinct);
  Trace.disable ();
  Trace.reset ()

let test_span_nesting_and_export () =
  Trace.reset ();
  Trace.enable ();
  Trace.set_seed 7;
  span_tree ();
  let infos = Trace.spans () in
  let root =
    List.find (fun (i : Trace.info) -> i.Trace.name = "root") infos
  in
  Alcotest.(check bool) "root is a root" true (root.Trace.parent = None);
  List.iter
    (fun (i : Trace.info) ->
      if i.Trace.name = "child" || i.Trace.name = "other" then
        Alcotest.(check bool)
          (i.Trace.name ^ " parented to root")
          true
          (i.Trace.parent = Some root.Trace.id))
    infos;
  Alcotest.(check int) "one closed root" 1 (Trace.root_count ());
  Alcotest.(check bool) "no open spans" true
    (List.for_all
       (fun (i : Trace.info) -> not (Float.is_nan i.Trace.end_s))
       infos);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Trace.export_jsonl ()))
  in
  Alcotest.(check int) "one JSONL line per span" 5 (List.length lines);
  Trace.disable ();
  Trace.reset ()

let test_disabled_trace_is_inert () =
  Trace.reset ();
  let before = List.length (Trace.spans ()) in
  Trace.with_span "ghost" (fun () -> ());
  Alcotest.(check int) "nothing recorded" before (List.length (Trace.spans ()))

(* ---------------- LP engine instrumentation -------------------------- *)

(* The sparse revised simplex and the warm-started branch & bound flush
   work counters into the default registry: a solve with the sparse
   engine must move the refactorization and warm-start series and leave
   the eta-length gauge at the last solve's value.  The instance (the
   CI branching family, with 16 paths) needs more entries than the
   paper's A, so counting cannot settle it and the root LP runs. *)
let test_simplex_series_record () =
  let c_refactor = Metrics.counter "sdnplace_simplex_refactorizations_total" in
  let c_hits = Metrics.counter "sdnplace_ilp_warm_start_hits_total" in
  let c_misses = Metrics.counter "sdnplace_ilp_warm_start_misses_total" in
  let g_eta = Metrics.gauge "sdnplace_simplex_eta_len" in
  let r0 = Metrics.counter_value c_refactor in
  let w0 = Metrics.counter_value c_hits + Metrics.counter_value c_misses in
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      let inst =
        Workload.build
          { Workload.default with Workload.capacity = 8; seed = 2; paths = 16 }
      in
      let options =
        Placement.Solve.options
          ~ilp_config:{ Ilp.Solver.default_config with time_limit = 10.0 }
          ()
      in
      ignore (Placement.Solve.run ~options inst));
  Alcotest.(check bool) "refactorizations advanced" true
    (Metrics.counter_value c_refactor > r0);
  Alcotest.(check bool) "warm-start hits+misses advanced" true
    (Metrics.counter_value c_hits + Metrics.counter_value c_misses > w0);
  Alcotest.(check bool) "eta-len gauge is sane" true
    (Metrics.gauge_value g_eta >= 0.0);
  (* All four series belong to the exposition (a typo'd name would make
     the checker reject the render in the metrics CI lane). *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (List.mem name (Metrics.series_names ())))
    [
      "sdnplace_simplex_refactorizations_total";
      "sdnplace_simplex_eta_len";
      "sdnplace_ilp_warm_start_hits_total";
      "sdnplace_ilp_warm_start_misses_total";
    ]

(* ---------------- consistent-update wave series and span ------------- *)

let test_update_wave_series_record () =
  let c_waves = Metrics.counter "sdnplace_update_waves_total" in
  let c_rolls = Metrics.counter "sdnplace_update_wave_rollbacks_total" in
  let h_wave =
    Metrics.histogram
      ~buckets:[| 0.0001; 0.001; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 |]
      "sdnplace_update_wave_seconds"
  in
  let w0 = Metrics.counter_value c_waves in
  let l0 = Util.observations h_wave in
  Metrics.enable ();
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ())
    (fun () ->
      (* one committing install through the engine's consistent path *)
      let inst =
        Workload.build
          { Workload.default with Workload.num_policies = 2; rules = 4 }
      in
      let options =
        Placement.Solve.options
          ~ilp_config:{ Ilp.Solver.default_config with time_limit = 10.0 }
          ()
      in
      let report = Placement.Solve.run ~options inst in
      let initial = Option.get report.Placement.Solve.solution in
      let config =
        {
          Runtime.Engine.default_config with
          Runtime.Engine.solve_options = options;
        }
      in
      let eng = Runtime.Engine.create ~config initial in
      let churn = Runtime.Churn.make ~rules:4 ~seed:5 () in
      ignore (Runtime.Churn.drive churn eng 3));
  let waves = Metrics.counter_value c_waves - w0 in
  Alcotest.(check bool) "wave counter advanced" true (waves > 0);
  Alcotest.(check int) "one latency observation per committed wave" waves
    (Util.observations h_wave - l0);
  ignore (Metrics.counter_value c_rolls);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (List.mem name (Metrics.series_names ())))
    [
      "sdnplace_update_waves_total";
      "sdnplace_update_wave_rollbacks_total";
      "sdnplace_update_wave_seconds_sum";
      "sdnplace_update_wave_seconds_count";
    ];
  (* the update span sits under runtime.event in the trace tree *)
  let infos = Trace.spans () in
  let by_id id =
    List.find_opt (fun (i : Trace.info) -> i.Trace.id = id) infos
  in
  let rec under_event (i : Trace.info) =
    i.Trace.name = "runtime.event"
    ||
    match i.Trace.parent with
    | None -> false
    | Some p -> ( match by_id p with None -> false | Some q -> under_event q)
  in
  let updates =
    List.filter (fun (i : Trace.info) -> i.Trace.name = "runtime.update") infos
  in
  Alcotest.(check bool) "runtime.update spans recorded" true (updates <> []);
  List.iter
    (fun i ->
      Alcotest.(check bool) "runtime.update nested under runtime.event" true
        (under_event i))
    updates;
  Alcotest.(check (list string)) "trace still nests" [] (Trace.check_nesting ());
  Trace.reset ()

(* ---------------- determinism: telemetry must not perturb runs ------- *)

let drive_signatures ~seed =
  let family =
    {
      Workload.default with
      Workload.num_policies = 3;
      rules = 5;
      paths = 12;
      capacity = 40;
      seed;
    }
  in
  let inst = Workload.build family in
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit = 10.0 }
      ()
  in
  let report = Placement.Solve.run ~options inst in
  let initial = Option.get report.Placement.Solve.solution in
  let fault =
    Runtime.Fault_plan.make ~fail_rate:0.15 ~timeout_rate:0.08 ~seed ()
  in
  let config =
    {
      Runtime.Engine.default_config with
      Runtime.Engine.solve_options = options;
    }
  in
  let eng = Runtime.Engine.create ~config ~fault initial in
  let churn = Runtime.Churn.make ~rules:4 ~seed:((seed * 13) + 5) () in
  let reports = Runtime.Churn.drive churn eng 12 in
  List.map Runtime.Report.signature reports

let test_telemetry_does_not_perturb () =
  let seed = 11 in
  let off = drive_signatures ~seed in
  Metrics.enable ();
  Trace.enable ();
  let on =
    Fun.protect
      ~finally:(fun () ->
        Metrics.disable ();
        Trace.disable ();
        Trace.reset ())
      (fun () -> drive_signatures ~seed)
  in
  Alcotest.(check (list string))
    "equal seeds: signatures identical with telemetry on" off on

(* The placement front-end spans: on an instance whose root runs the cut
   loop and the feasibility pump, a traced [Solve.run] records every
   stage span under [solve.engine], the tree nests cleanly, and the
   result is the untraced run's. *)
let stage_spans =
  [
    "solve.warm_start";
    "solve.encode";
    "ilp.setup";
    "ilp.cuts";
    "ilp.pump";
  ]

let test_stage_spans () =
  let inst =
    Workload.build { Workload.default with Workload.k = 8; capacity = 6; seed = 2 }
  in
  let run () = Placement.Solve.run inst in
  let placed (r : Placement.Solve.report) =
    Option.map
      (fun (s : Placement.Solution.t) ->
        ( s.Placement.Solution.objective,
          Array.map
            (List.map (fun (c : Placement.Solution.cell) -> c.Placement.Solution.tags))
            s.Placement.Solution.per_switch ))
      r.Placement.Solve.solution
  in
  let off = run () in
  Trace.reset ();
  Trace.enable ();
  let on = Fun.protect ~finally:Trace.disable run in
  let infos = Trace.spans () in
  let by_id id = List.find (fun (i : Trace.info) -> i.Trace.id = id) infos in
  let rec under_engine (i : Trace.info) =
    match i.Trace.parent with
    | None -> false
    | Some p ->
      let p = by_id p in
      p.Trace.name = "solve.engine" || under_engine p
  in
  List.iter
    (fun name ->
      match List.filter (fun (i : Trace.info) -> i.Trace.name = name) infos with
      | [] -> Alcotest.failf "no %s span" name
      | spans ->
        Alcotest.(check bool)
          (name ^ " under solve.engine") true (List.for_all under_engine spans))
    stage_spans;
  Alcotest.(check (list string)) "trace nests" [] (Trace.check_nesting ());
  Trace.reset ();
  Alcotest.(check bool)
    "same status" true
    (off.Placement.Solve.status = on.Placement.Solve.status);
  Alcotest.(check bool) "same objective and placement" true (placed off = placed on);
  Alcotest.(check bool) "solved" true (placed on <> None)

let suite =
  [
    Alcotest.test_case "concurrent domain writers" `Quick
      test_concurrent_writers;
    Alcotest.test_case "disabled registry is inert" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "registration is idempotent, clashes rejected" `Quick
      test_registration_idempotent;
    Alcotest.test_case "label cap bounds series cardinality" `Quick
      test_label_cap_bounds_cardinality;
    Alcotest.test_case "self-render passes the exposition checker" `Quick
      test_render_checks_out;
    Alcotest.test_case "checker rejects unknown and duplicate series" `Quick
      test_checker_rejects_strays;
    Alcotest.test_case "span ids are seed-deterministic" `Quick
      test_span_ids_deterministic;
    Alcotest.test_case "span trees nest and export" `Quick
      test_span_nesting_and_export;
    Alcotest.test_case "disabled tracing records nothing" `Quick
      test_disabled_trace_is_inert;
    Alcotest.test_case "simplex + warm-start series record" `Quick
      test_simplex_series_record;
    Alcotest.test_case "update wave series + span record" `Quick
      test_update_wave_series_record;
    Alcotest.test_case "telemetry does not perturb a seeded run" `Quick
      test_telemetry_does_not_perturb;
    Alcotest.test_case "placement stage spans nest, result unchanged" `Quick
      test_stage_spans;
  ]
