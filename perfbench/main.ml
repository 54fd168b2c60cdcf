(* Runs one workload once and prints one JSON object with everything it
   measured: the end-to-end metrics, the per-layer metrics (traced runs
   only), the host-independent counts and the digest of the run's
   deterministic outputs.  perfbench/run.py turns it into the reported
   result.

   Usage: main.exe --workload place_paper|churn_journal|serve_storm
                   --seed N --seconds S --trace 0|1

   The work is a fixed function of the seed and [--seconds], so every
   run with equal arguments does exactly the same work.  A traced run
   first runs the workload untraced (the overhead reference), then again
   with the library's telemetry and the benchmark's own spans on. *)

let arg name default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let workload = arg "--workload" ""
let seed = int_of_string (arg "--seed" "1")
let seconds = int_of_string (arg "--seconds" "10")
let trace = arg "--trace" "0" = "1"

(* Work per run.  Counts, not timers, set the size, so equal arguments
   mean equal work.  On a 2-vCPU x86 VM churn_journal and serve_storm
   measure about [--seconds]; place_paper needs about 3x that for the
   200 instances of [--seconds 10], which its p90 needs to be steady. *)
let run_pass () =
  Meter.calib := [];
  match workload with
  | "place_paper" -> Place_paper.run ~seed ~instances:(20 * seconds)
  | "churn_journal" -> Churn_journal.run ~seed ~events:(450 * seconds)
  | "serve_storm" -> Serve_storm.run ~seed ~requests:(15000 * seconds)
  | w ->
    prerr_endline ("unknown workload: " ^ w);
    exit 2

(* Every per-layer metric, in report order.  A workload that does not
   exercise a layer reports 0 for it. *)
let layer_names =
  [
    "workload.build_ms";
    "placement.redundancy_ms";
    "placement.merge_plan_ms";
    "placement.layout_ms";
    "placement.engine_ms";
    "ilp.lp_ms";
    "placement.engine_other_ms";
    "simplex.pivots";
    "simplex.refactorizations";
    "ilp.nodes";
    "ilp.lp_calls";
    "ilp.cuts";
    "ilp.fpump_rounds";
    "ilp.presolve_vars_fixed";
    "runtime.event_ms";
    "runtime.plan_ms";
    "runtime.ladder_ms";
    "runtime.update_ms";
    "runtime.tx_ms";
    "runtime.verify_ms";
    "runtime.rung_noop";
    "runtime.rung_incremental";
    "runtime.rung_full_resolve";
    "runtime.rung_greedy";
    "runtime.rung_quarantine";
    "runtime.waves_per_op";
    "runtime.switch_retries_per_op";
    "runtime.churn_next_ms";
    "journal.handle_ms";
    "journal.self_ms";
    "journal.store_ms";
    "journal.appends_per_op";
    "journal.wal_bytes_per_op";
    "journal.syncs_per_op";
    "journal.snapshots";
    "journal.snapshot_bytes";
    "journal.create_ms";
    "serve.submit_us";
    "serve.flush_us";
    "serve.tick_ms";
    "serve.drain_ms";
    "serve.intake_fsyncs_per_event";
    "serve.shed_frac";
    "serve.quarantined_frac";
    "wire.encode_us";
    "wire.decode_us";
    "wire.bytes_per_request";
    "gc.alloc_mw_per_op";
    "gc.alloc_mw.build";
    "gc.alloc_mw.solve";
    "gc.alloc_mw.churn_next";
    "gc.alloc_mw.handle";
    "gc.alloc_mw.submit";
    "gc.alloc_mw.tick";
    "gc.alloc_mw.wire";
    "gc.major_collections";
    "rules_installed";
    "op_ms_p99";
    "host.kernel_ms";
    "raw.setup_s";
    "raw.ops_per_s";
    "raw.op_ms_p50";
    "raw.op_ms_p90";
    "raw.op_ms_tail";
    "trace.ops_per_s";
    "trace.untraced_ops_per_s";
    "trace.overhead_pct";
  ]

(* Host-speed factor of a kernel time: timings are multiplied by it,
   rates divided (see [Meter.calibrate]).  [~raw:true] gives the values
   as measured. *)
let speed ~raw kernel = if raw then 1.0 else Meter.reference_s /. kernel

let ops_per_s ~raw (r : Meter.result) =
  Meter.median
    (List.map
       (fun (c : Meter.chunk) -> float_of_int c.ops /. c.secs /. speed ~raw c.kernel)
       r.chunks)

let sorted_lats ~raw (r : Meter.result) =
  let a =
    Array.concat
      (List.map
         (fun (c : Meter.chunk) -> Array.map (fun x -> x *. speed ~raw c.kernel) c.lats)
         r.chunks)
  in
  Array.sort compare a;
  a

(* The highest of p99/p90 with at least ten samples beyond it. *)
let tail sorted =
  let n = Array.length sorted in
  if n >= 1000 then Meter.percentile sorted 0.99 else Meter.percentile sorted 0.90

let timings ~raw (r : Meter.result) =
  let sorted = sorted_lats ~raw r in
  let ms p = Meter.percentile sorted p *. 1000.0 in
  [
    ("setup_s", r.setup_s *. speed ~raw r.kernel_s);
    ("ops_per_s", ops_per_s ~raw r);
    ("op_ms_p50", ms 0.50);
    ("op_ms_p90", ms 0.90);
    ("op_ms_tail", tail sorted *. 1000.0);
  ]

let e2e (r : Meter.result) =
  timings ~raw:false r
  @ [
      ("peak_rss_mb", Meter.peak_rss_mb ());
      ("ok_frac", float_of_int r.ok /. float_of_int r.attempted);
    ]

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_float v) kvs)
  ^ "}"

let () =
  let untraced = run_pass () in
  let majors = Meter.major_collections () in
  let failed, layer, errors =
    if not trace then (untraced.failed, [], untraced.errors)
    else begin
      Meter.traced := true;
      Telemetry.Trace.enable ();
      Telemetry.Metrics.enable ();
      let traced = run_pass () in
      Telemetry.Trace.disable ();
      Telemetry.Metrics.disable ();
      Meter.traced := false;
      let values = Hashtbl.create 64 in
      (* Allocation is a property of the program, not of tracing (span
         attributes allocate by value): the gc figures come from the
         untraced pass, where they repeat exactly. *)
      List.iter
        (fun (k, v) ->
          if not (String.starts_with ~prefix:"gc." k) then Hashtbl.replace values k v)
        traced.layer;
      List.iter
        (fun (k, v) ->
          if String.starts_with ~prefix:"gc." k then Hashtbl.replace values k v)
        untraced.layer;
      List.iter
        (fun (k, v) -> Hashtbl.replace values ("raw." ^ k) v)
        (timings ~raw:true untraced);
      let sorted = sorted_lats ~raw:false traced in
      let n = Array.length sorted in
      let fast = ops_per_s ~raw:false untraced and slow = ops_per_s ~raw:false traced in
      List.iter
        (fun (k, v) -> Hashtbl.replace values k v)
        [
          ("gc.major_collections", float_of_int majors);
          ("rules_installed", traced.rules_installed);
          (* only where at least ten samples lie beyond it *)
          ("op_ms_p99", if n >= 1000 then Meter.percentile sorted 0.99 *. 1000.0 else 0.0);
          ("host.kernel_ms", untraced.kernel_s *. 1000.0);
          ("trace.ops_per_s", slow);
          ("trace.untraced_ops_per_s", fast);
          ("trace.overhead_pct", ((fast /. slow) -. 1.0) *. 100.0);
        ];
      let layer =
        List.map
          (fun k -> (k, Option.value (Hashtbl.find_opt values k) ~default:0.0))
          layer_names
      in
      let errors =
        if traced.digest <> untraced.digest then
          "traced and untraced passes did different work" :: traced.errors
        else traced.errors
      in
      (max untraced.failed traced.failed, layer, untraced.errors @ errors)
    end
  in
  let counts =
    untraced.counts
    @ [ ("attempted", float_of_int untraced.attempted); ("ok", float_of_int untraced.ok) ]
  in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \"attempted\": %d, \
     \"failed\": %d, \"errors\": [%s], \"digest\": %s, \"e2e\": %s, \"layer\": %s, \
     \"counts\": %s, \"raw\": %s}\n"
    (json_string workload) seed seconds trace untraced.attempted failed
    (String.concat ", " (List.map json_string errors))
    (json_string untraced.digest)
    (json_obj (e2e untraced))
    (json_obj layer) (json_obj counts)
    (json_obj (("kernel_ms", untraced.kernel_s *. 1000.0) :: timings ~raw:true untraced))
