(* The retry policy: up to [max_retries] re-sends after a failed
   attempt, the first delayed [base_backoff_s], each later one twice the
   last, capped at [max_backoff_s], every delay scaled by one jitter
   draw.  An operation so accrues at most (0.01 + 0.02 + 0.04 + 0.08)
   x 1.5 = 0.225 s of simulated backoff. *)
let max_retries = 4
let base_backoff_s = 0.01
let max_backoff_s = 1.0

type stats = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable forced_resyncs : int;
  mutable backoff_s : float;
}

(* The registry is fed at the same mutation points as the per-instance
   record.  The record stays: it is the per-event-delta and journal-
   persisted (Marshal) view; the registry is the process-wide aggregate
   across every api instance. *)
let m_attempts =
  Telemetry.Metrics.counter ~help:"switch ops sent, retries included"
    "sdnplace_switch_attempts_total"

let m_failures =
  Telemetry.Metrics.counter ~help:"attempts rejected by the fault plan"
    "sdnplace_switch_failures_total"

let m_timeouts =
  Telemetry.Metrics.counter ~help:"attempts timed out by the fault plan"
    "sdnplace_switch_timeouts_total"

let m_retries =
  Telemetry.Metrics.counter ~help:"re-sends after a failed attempt"
    "sdnplace_switch_retries_total"

let m_gave_up =
  Telemetry.Metrics.counter ~help:"operations that exhausted their retries"
    "sdnplace_switch_gave_up_total"

let m_forced =
  Telemetry.Metrics.counter ~help:"forced full-table resyncs"
    "sdnplace_switch_forced_resyncs_total"

let backoff_buckets = [| 0.001; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

let m_op_backoff_s =
  Telemetry.Metrics.histogram
    ~help:"simulated per-operation backoff (only ops that backed off)"
    ~buckets:backoff_buckets "sdnplace_switch_op_backoff_seconds"

(* Compensation (rollback) operations get their own backoff series.
   Before this split, a wave that rolled back contributed
   each aborted operation's backoff to [sdnplace_switch_op_backoff_seconds]
   twice — once forward, once while compensating — so the histogram's
   sum double-counted the aborted work.  Forward ops observe into
   [m_op_backoff_s], rollback compensation into this one. *)
let m_rollback_backoff_s =
  Telemetry.Metrics.histogram
    ~help:"simulated backoff of rollback-compensation ops"
    ~buckets:backoff_buckets "sdnplace_switch_rollback_backoff_seconds"

type t = {
  live : Netsim.entry list array;
  fault : Fault_plan.t;
  stats : stats;
  mutable compensation : bool;
}

let create ~fault live =
  {
    live;
    fault;
    compensation = false;
    stats =
      {
        attempts = 0;
        failures = 0;
        timeouts = 0;
        retries = 0;
        forced_resyncs = 0;
        backoff_s = 0.0;
      };
  }

let tables t = t.live

let snapshot t = Array.copy t.live

let stats t = t.stats

let compensating t f =
  let saved = t.compensation in
  t.compensation <- true;
  Fun.protect ~finally:(fun () -> t.compensation <- saved) f

(* One operation = up to [1 + max_retries] attempts under exponential
   backoff with jitter.  Delays are accounted, not slept: the runtime
   handles events under a wall-clock deadline and must not burn it
   waiting on a switch the fault plan scripted to misbehave. *)
let attempt t ~switch apply =
  let acc = ref 0.0 in
  let rec go tries backoff =
    t.stats.attempts <- t.stats.attempts + 1;
    Telemetry.Metrics.incr m_attempts;
    match Fault_plan.draw t.fault ~switch with
    | Fault_plan.Ok ->
      apply ();
      true
    | (Fault_plan.Fail | Fault_plan.Timeout) as o ->
      (match o with
      | Fault_plan.Fail ->
        t.stats.failures <- t.stats.failures + 1;
        Telemetry.Metrics.incr m_failures
      | _ ->
        t.stats.timeouts <- t.stats.timeouts + 1;
        Telemetry.Metrics.incr m_timeouts);
      if tries >= max_retries then begin
        Telemetry.Metrics.incr m_gave_up;
        false
      end
      else begin
        t.stats.retries <- t.stats.retries + 1;
        Telemetry.Metrics.incr m_retries;
        acc := !acc +. (backoff *. Fault_plan.jitter t.fault);
        go (tries + 1) (Float.min max_backoff_s (2.0 *. backoff))
      end
  in
  let ok = go 0 base_backoff_s in
  t.stats.backoff_s <- t.stats.backoff_s +. !acc;
  if !acc > 0.0 then
    Telemetry.Metrics.observe
      (if t.compensation then m_rollback_backoff_s else m_op_backoff_s)
      !acc;
  ok

let install t ~switch entry =
  attempt t ~switch (fun () -> t.live.(switch) <- t.live.(switch) @ [ entry ])

let delete t ~switch entry =
  match Netsim.remove_first entry t.live.(switch) with
  | None -> true (* idempotent: nothing to delete *)
  | Some without -> attempt t ~switch (fun () -> t.live.(switch) <- without)

let force_set t ~switch table =
  t.stats.forced_resyncs <- t.stats.forced_resyncs + 1;
  Telemetry.Metrics.incr m_forced;
  t.live.(switch) <- table

let restore t tables =
  if Array.length tables <> Array.length t.live then
    invalid_arg "Switch_api.restore: switch count mismatch";
  Array.iteri
    (fun k table -> if t.live.(k) <> table then force_set t ~switch:k table)
    tables
