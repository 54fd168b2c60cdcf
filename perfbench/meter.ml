(* Measurement plumbing shared by the workloads: wall-clock and
   allocation accounting around every public call the benchmark makes,
   benchmark-side trace spans, folding of the library's own spans into
   self time per span name, and a counting/timing probe around journal
   stores.  Nothing here reaches inside [lib/]: it only wraps calls and
   reads public return values and telemetry. *)

let now = Unix.gettimeofday

(* Words this domain allocated on the minor heap so far: exact, so
   equal for deterministic code on any host.  (The major-heap counters
   also move with when collections happen to run, so they are left
   out; large direct major allocations are therefore not counted.) *)
let alloc_words () = Gc.minor_words ()

(* ------------------------------------------------------------------ *)
(* Per-call accounting                                                 *)

type acc = { mutable calls : int; mutable secs : float; mutable words : float }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32

(* True during the traced pass: [call] then also opens a span, so the
   library's spans nest under the benchmark's and fold into self time. *)
let traced = ref false

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; secs = 0.0; words = 0.0 } in
    Hashtbl.replace accs name a;
    a

(* Run [f] as one call of [name]: its wall time and allocated words are
   added to [name]'s account; under tracing it is also a span [name]. *)
let call name f =
  let a = acc name in
  let w0 = alloc_words () in
  let t0 = now () in
  let r = if !traced then Telemetry.Trace.with_span name f else f () in
  let t1 = now () in
  a.calls <- a.calls + 1;
  a.secs <- a.secs +. (t1 -. t0);
  a.words <- a.words +. (alloc_words () -. w0);
  r

let calls name = (acc name).calls
let secs name = (acc name).secs
let words name = (acc name).words

(* ------------------------------------------------------------------ *)
(* Span folding                                                        *)

type span_acc = { mutable total : float; mutable self : float }

let span_accs : (string, span_acc) Hashtbl.t = Hashtbl.create 32

let span_acc name =
  match Hashtbl.find_opt span_accs name with
  | Some a -> a
  | None ->
    let a = { total = 0.0; self = 0.0 } in
    Hashtbl.replace span_accs name a;
    a

(* Fold every recorded span into per-name totals and self times (a
   span's duration minus the part its direct children cover), then drop
   the spans so a long run keeps memory flat.  Call between ops, when
   no span is open. *)
let fold_spans () =
  if !traced then begin
    let spans = Telemetry.Trace.spans () in
    let child = Hashtbl.create 64 in
    List.iter
      (fun (s : Telemetry.Trace.info) ->
        match s.parent with
        | Some p ->
          let d = s.end_s -. s.start_s in
          Hashtbl.replace child p
            (d +. Option.value (Hashtbl.find_opt child p) ~default:0.0)
        | None -> ())
      spans;
    List.iter
      (fun (s : Telemetry.Trace.info) ->
        let d = s.end_s -. s.start_s in
        let a = span_acc s.name in
        a.total <- a.total +. d;
        a.self <-
          a.self +. d -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0)
      spans;
    Telemetry.Trace.reset ()
  end

let span_total name = (span_acc name).total
let span_self name = (span_acc name).self

(* ------------------------------------------------------------------ *)
(* Library telemetry, read through its public registry                *)

let counter name = Telemetry.Metrics.counter_value (Telemetry.Metrics.counter name)

let histogram_sum name =
  (Telemetry.Metrics.snapshot (Telemetry.Metrics.histogram name)).sum

let gauge name = Telemetry.Metrics.gauge name

(* ------------------------------------------------------------------ *)
(* Store probe                                                         *)

type probe = {
  mutable appends : int;
  mutable append_bytes : int;
  mutable syncs : int;
  mutable snaps : int;
  mutable snap_bytes : int;
}

let probe () =
  { appends = 0; append_bytes = 0; syncs = 0; snaps = 0; snap_bytes = 0 }

let reset_probe p =
  p.appends <- 0;
  p.append_bytes <- 0;
  p.syncs <- 0;
  p.snaps <- 0;
  p.snap_bytes <- 0

(* Wrap a store's write half in counting closures; its time is
   accounted as calls of [timer] (a span of that name when traced). *)
let probed ?(timer = "bench.store") p (s : Journal.Store.t) =
  {
    s with
    Journal.Store.wal_append =
      (fun b ->
        p.appends <- p.appends + 1;
        p.append_bytes <- p.append_bytes + String.length b;
        call timer (fun () -> s.Journal.Store.wal_append b));
    wal_sync =
      (fun () ->
        p.syncs <- p.syncs + 1;
        call timer s.Journal.Store.wal_sync);
    snap_write =
      (fun b ->
        p.snaps <- p.snaps + 1;
        p.snap_bytes <- p.snap_bytes + String.length b;
        call timer (fun () -> s.Journal.Store.snap_write b));
  }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolated percentile of a sorted array, [p] in [0,1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let per n x = if n > 0 then x /. float_of_int n else 0.0

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)

(* The speed of a shared VM drifts by tens of percent over seconds and
   minutes, and every timing moves with it.  A fixed reference kernel,
   run between chunks of the measured work (never inside an op), tracks
   that drift: allocation, hashing, sorting and list walking, like the
   program under test, but no code of it.  Timings are reported scaled
   by [reference_s] / (kernel time around their chunk), i.e. in seconds
   of a host that runs the kernel in [reference_s]. *)

let reference_s = 0.010

let calib = ref []

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFF) i
  done;
  let a = Array.init 20_000 (fun i -> float_of_int ((i * 48271) mod 65521)) in
  Array.sort compare a;
  let l = List.init 20_000 (fun i -> i) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) (Hashtbl.length h) (List.rev l)))

let calibrate () =
  let t0 = now () in
  kernel ();
  let k = now () -. t0 in
  calib := k :: !calib;
  k

(* The measured loop is cut into chunks (batches or episodes), each
   bracketed by kernel runs; its ops are scaled by the mean of the two. *)
type chunk = {
  ops : int;
  secs : float;  (** measured seconds the chunk's rate divides by *)
  lats : float array;  (** per-op seconds *)
  kernel : float;
}

type chunker = { mutable last : float; mutable closed : chunk list }

let chunker () = { last = calibrate (); closed = [] }

let close_chunk c ~ops ~secs lats =
  let k = calibrate () in
  c.closed <- { ops; secs; lats; kernel = (c.last +. k) /. 2.0 } :: c.closed;
  c.last <- k

let chunks c = List.rev c.closed

(* ------------------------------------------------------------------ *)
(* What a workload hands back to [Main]                                *)

type result = {
  attempted : int;  (** operations submitted *)
  failed : int;  (** operations that broke a correctness check *)
  errors : string list;  (** the first few failures, for the log *)
  ok : int;  (** operations counted as ok by the workload's rule *)
  digest : string;  (** digest of every deterministic output *)
  setup_s : float;
  chunks : chunk list;
      (** the measured loop; the reported rate is the median chunk
          rate, so a transient host stall moves one chunk, not the
          result *)
  kernel_s : float;  (** median kernel time of the pass, for set-up *)
  rules_installed : float;  (** 0 where not visible from outside *)
  counts : (string * float) list;
      (** host-independent counts: equal for equal seeds *)
  layer : (string * float) list;  (** per-layer metrics of the pass *)
}

(* Ops by the degradation-ladder rung that produced them. *)
let count_rung tbl rung =
  Hashtbl.replace tbl rung (1 + Option.value (Hashtbl.find_opt tbl rung) ~default:0)

let rung_layers tbl =
  List.map
    (fun rung ->
      ( "runtime.rung_"
        ^ String.map (function '-' -> '_' | c -> c) (Runtime.Report.rung_name rung),
        float_of_int (Option.value (Hashtbl.find_opt tbl rung) ~default:0) ))
    Runtime.Report.[ Noop; Incremental; Full_resolve; Greedy; Quarantine ]

let errors_cap = 8

let note_error errs msg =
  if List.length !errs < errors_cap then errs := msg :: !errs

(* Library counter readings at the last [reset]. *)
let baseline = Hashtbl.create 16

(* Counter [name]'s increase since the last [reset]. *)
let delta name = counter name - Option.value (Hashtbl.find_opt baseline name) ~default:0

let lp0 = ref 0.0

(* The per-layer values every workload derives the same way from the
   folded spans and the library counters.  [ops] is the op count the
   per-op averages divide by. *)
let library_layers ~ops =
  let ms x = per ops x *. 1000.0 in
  let dc name = per ops (float_of_int (delta name)) in
  let lp_ms = ms (histogram_sum "sdnplace_ilp_lp_seconds" -. !lp0) in
  let engine_ms = ms (span_total "solve.engine") in
  [
    ("placement.redundancy_ms", ms (span_total "solve.redundancy"));
    ("placement.merge_plan_ms", ms (span_total "solve.merge_plan"));
    ("placement.layout_ms", ms (span_total "solve.layout"));
    ("placement.engine_ms", engine_ms);
    ("ilp.lp_ms", lp_ms);
    ("placement.engine_other_ms", engine_ms -. lp_ms);
    ("simplex.pivots", dc "sdnplace_simplex_pivots_total");
    ("simplex.refactorizations", dc "sdnplace_simplex_refactorizations_total");
    ("ilp.nodes", dc "sdnplace_ilp_nodes_total");
    ("ilp.lp_calls", dc "sdnplace_ilp_lp_calls_total");
    ("ilp.cuts", dc "sdnplace_ilp_cuts_total");
    ("ilp.fpump_rounds", dc "sdnplace_ilp_fpump_rounds_total");
    ("runtime.event_ms", ms (span_self "runtime.event"));
    ("runtime.plan_ms", ms (span_self "runtime.plan"));
    ("runtime.ladder_ms", ms (span_self "runtime.ladder"));
    ("runtime.update_ms", ms (span_self "runtime.update"));
    ("runtime.tx_ms", ms (span_self "runtime.tx"));
    ("runtime.verify_ms", ms (span_self "runtime.verify"));
    ("journal.handle_ms", ms (span_total "journal.event"));
    ("journal.self_ms", ms (span_self "journal.event"));
    ("journal.store_ms", per ops (secs "bench.store") *. 1000.0);
  ]

let library_counters =
  [
    "sdnplace_simplex_pivots_total";
    "sdnplace_simplex_refactorizations_total";
    "sdnplace_ilp_nodes_total";
    "sdnplace_ilp_lp_calls_total";
    "sdnplace_ilp_cuts_total";
    "sdnplace_ilp_fpump_rounds_total";
    "sdnplace_update_waves_total";
    "sdnplace_switch_retries_total";
  ]

let major0 = ref 0

(* Reset every account before a measured loop. *)
let reset () =
  Hashtbl.reset accs;
  Hashtbl.reset span_accs;
  Telemetry.Trace.reset ();
  List.iter (fun n -> Hashtbl.replace baseline n (counter n)) library_counters;
  lp0 := histogram_sum "sdnplace_ilp_lp_seconds";
  major0 := (Gc.quick_stat ()).Gc.major_collections

(* Major collections since the last [reset]. *)
let major_collections () = (Gc.quick_stat ()).Gc.major_collections - !major0
