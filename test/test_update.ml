(* The per-packet-consistent update scheduler: wave planning and
   labels, clean execution landing exactly on the target, fault-driven
   wave rollback and whole-update abort, the transient-occupancy bound, and the forward/compensation backoff
   accounting split in the switch API. *)
open Runtime

module Metrics = Telemetry.Metrics

let entry ?(action = Acl.Rule.Permit) tag p =
  {
    Netsim.tags = [ tag ];
    rule = Acl.Rule.make ~field:Ternary.Field.any ~action ~priority:p;
  }

let packet i =
  Ternary.Packet.make ~src:i ~dst:(i + 1) ~sport:7 ~dport:9 ~proto:6

let path ~ingress ~egress switches =
  Routing.Path.make ~ingress ~egress ~switches ()

let bytes_of t = Marshal.to_string t []

(* [f ()] and the wave rollbacks it made, read off the process-wide
   counter. *)
let with_rollbacks f =
  let was = Metrics.is_enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Metrics.disable ())
  @@ fun () ->
  let c = Metrics.counter "sdnplace_update_wave_rollbacks_total" in
  let before = Metrics.counter_value c in
  let r = f () in
  (r, Metrics.counter_value c - before)

(* Ingress 0 moves from switch 0 (permit-only) to switch 1 (drop rule on
   top): both the placement and the verdict change, so a mixed-policy
   walk would be detectable by the barrier. *)
let small_corpus () =
  [
    {
      Update.ingress = 0;
      old_paths = [ path ~ingress:0 ~egress:1 [ 0 ] ];
      new_paths = [ path ~ingress:0 ~egress:1 [ 1 ] ];
      probes = Lazy.from_val [ packet 0 ];
    };
  ]

let old_tables () = [| [ entry 0 1 ]; [] |]
let target_tables () = [| []; [ entry ~action:Acl.Rule.Drop 0 9; entry 0 2 ] |]

let build_small () =
  Update.build
    ~attach:(fun _ -> 0)
    ~corpus:(small_corpus ())
    ~old_tables:(old_tables ()) ~target:(target_tables ())

(* ------------------------------------------------------------------ *)

let test_plan_structure () =
  let plan = build_small () in
  Alcotest.(check (list string))
    "wave labels in protocol order"
    [ "shadow-depth-1"; "flip"; "gc-old"; "install-new"; "unflip"; "gc-shadow" ]
    (Array.to_list (Array.map (fun w -> w.Update.label) plan.Update.waves));
  Alcotest.(check int) "flip wave index" 1 plan.Update.flip_wave;
  Alcotest.(check int) "unflip wave index" 4 plan.Update.unflip_wave;
  Alcotest.(check (list int)) "affected ingresses" [ 0 ] plan.Update.affected;
  Array.iteri
    (fun k peak ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d: peak within base + headroom" k)
        true
        (peak
        <= plan.Update.base_occupancy.(k) + plan.Update.shadow_headroom.(k)))
    plan.Update.peak_occupancy;
  (* equal inputs, equal plans — wave schedules are seed-reproducible *)
  Alcotest.(check bool) "planning is deterministic" true
    (bytes_of plan = bytes_of (build_small ()))

let test_clean_execute () =
  let plan = build_small () in
  let api =
    Switch_api.create ~fault:(Fault_plan.faultless ())
      (Array.copy (old_tables ()))
  in
  let boundaries = ref [] in
  let observer =
    {
      Update.on_wave_begin = (fun ~wave -> boundaries := (`B, wave) :: !boundaries);
      on_wave_commit =
        (fun ~wave -> boundaries := (`C, wave) :: !boundaries);
    }
  in
  let v0 = Update.violations_total () in
  let r, rollbacks =
    with_rollbacks (fun () -> Update.execute ~observer ~api plan)
  in
  Alcotest.(check bool) "committed" true (r.Update.outcome = Update.Committed);
  Alcotest.(check int) "every wave committed"
    (Array.length plan.Update.waves)
    r.Update.waves_committed;
  Alcotest.(check int) "no rollbacks" 0 rollbacks;
  Alcotest.(check int) "no violations" v0 (Update.violations_total ());
  Alcotest.(check bool) "tables land exactly on the target" true
    (bytes_of (Switch_api.tables api) = bytes_of (target_tables ()));
  let want =
    List.concat_map
      (fun w -> [ (`B, w); (`C, w) ])
      (List.init (Array.length plan.Update.waves) Fun.id)
  in
  Alcotest.(check bool) "observer saw begin/commit per wave in order" true
    (List.rev !boundaries = want)

let test_wave_rollback_then_commit () =
  let plan = build_small () in
  let fault = Fault_plan.make ~seed:5 () in
  let api = Switch_api.create ~fault (Array.copy (old_tables ())) in
  let ops = ref 0 in
  (* fail all five attempts of the second operation of the first
     (two-op shadow) wave: the first shadow is already in, so the
     rollback must compensate it *)
  let on_op ~switch:_ ~op:_ =
    incr ops;
    if !ops = 2 then Fault_plan.fail_next fault 5
  in
  let v0 = Update.violations_total () in
  let r, rollbacks =
    with_rollbacks (fun () -> Update.execute ~on_op ~api plan)
  in
  Alcotest.(check bool) "committed after wave retry" true
    (r.Update.outcome = Update.Committed);
  Alcotest.(check int) "one wave rollback" 1 rollbacks;
  Alcotest.(check int) "no violations" v0 (Update.violations_total ());
  Alcotest.(check bool) "tables land exactly on the target" true
    (bytes_of (Switch_api.tables api) = bytes_of (target_tables ()))

let test_abort_restores_pre_update () =
  let plan = build_small () in
  let fault = Fault_plan.make ~seed:6 () in
  let api = Switch_api.create ~fault (Array.copy (old_tables ())) in
  let before = bytes_of (Switch_api.snapshot api) in
  (* the first operation fails all five attempts, on the wave's first
     run and on its one retry *)
  Fault_plan.fail_next fault 10;
  let r, rollbacks =
    with_rollbacks (fun () -> Update.execute ~api plan)
  in
  (match r.Update.outcome with
  | Update.Aborted { op = "install"; _ } -> ()
  | Update.Aborted { op; _ } -> Alcotest.failf "aborted on unexpected op %s" op
  | Update.Committed -> Alcotest.fail "expected abort");
  Alcotest.(check int) "nothing committed" 0 r.Update.waves_committed;
  Alcotest.(check int) "both runs of the failed wave count as rolled back" 2
    rollbacks;
  Alcotest.(check bool) "tables byte-identical to pre-update" true
    (bytes_of (Switch_api.tables api) = before)

(* ------------------------------------------------------------------ *)
(* Barriers that catch a mixed state.                                  *)

(* Ingress 0 moves from switch 0 to switch 1 and is delivered before and
   after; ingress 1 stays on switch 2, which no wave touches. *)
let barrier_corpus () =
  [
    {
      Update.ingress = 0;
      old_paths = [ path ~ingress:0 ~egress:1 [ 0 ] ];
      new_paths = [ path ~ingress:0 ~egress:1 [ 1 ] ];
      probes = Lazy.from_val [ packet 0 ];
    };
    {
      Update.ingress = 1;
      old_paths = [ path ~ingress:1 ~egress:2 [ 2 ] ];
      new_paths = [ path ~ingress:1 ~egress:2 [ 2 ] ];
      probes = Lazy.from_val [ packet 1 ];
    };
  ]

let barrier_old () = [| [ entry 0 1 ]; []; [ entry 1 1 ] |]

let build_barrier () =
  Update.build
    ~attach:(fun _ -> 0)
    ~corpus:(barrier_corpus ()) ~old_tables:(barrier_old ())
    ~target:[| []; [ entry 0 2 ]; [ entry 1 1 ] |]

(* Run [plan] from [barrier_old ()], putting a drop-any entry on [tag]
   that no plan holds at the head of [switch]'s live table, just before
   the first operation of the wave labelled [at].  Returns the result
   and whether the tables ended byte-identical to the pre-update ones. *)
let corrupted_run plan ~at ~tag ~switch =
  let fault = Fault_plan.faultless () in
  let api = Switch_api.create ~fault (Array.copy (barrier_old ())) in
  let before = bytes_of (Switch_api.snapshot api) in
  let wave = ref (-1) and fired = ref false in
  let observer =
    {
      Update.on_wave_begin = (fun ~wave:w -> wave := w);
      on_wave_commit = (fun ~wave:_ -> ());
    }
  in
  let on_op ~switch:_ ~op:_ =
    if (not !fired) && plan.Update.waves.(!wave).Update.label = at then begin
      fired := true;
      let live = Switch_api.tables api in
      live.(switch) <- entry ~action:Acl.Rule.Drop tag 1000 :: live.(switch)
    end
  in
  let r = Update.execute ~observer ~on_op ~api plan in
  (r, bytes_of (Switch_api.tables api) = before)

let check_verify_abort name ~committed run =
  let v0 = Update.violations_total () in
  let r, restored = run () in
  (match r.Update.outcome with
  | Update.Aborted { switch = -1; op = "verify" } -> ()
  | _ -> Alcotest.failf "%s: expected a verify abort" name);
  Alcotest.(check int) (name ^ ": one violating walk") (v0 + 1)
    (Update.violations_total ());
  Alcotest.(check int) (name ^ ": waves before the failing barrier") committed
    r.Update.waves_committed;
  Alcotest.(check bool) (name ^ ": tables byte-identical to pre-update") true
    restored

let test_barrier_catches_unaffected () =
  let plan = build_barrier () in
  Alcotest.(check (list int)) "only ingress 0 is affected" [ 0 ]
    plan.Update.affected;
  check_verify_abort "unaffected path" ~committed:0 (fun () ->
      corrupted_run plan ~at:"shadow-depth-1" ~tag:1 ~switch:2)

let test_barrier_catches_version_tag () =
  let plan = build_barrier () in
  Alcotest.(check string) "gc-old runs between flip and unflip" "gc-old"
    plan.Update.waves.(plan.Update.flip_wave + 1).Update.label;
  check_verify_abort "version tag" ~committed:(plan.Update.flip_wave + 1)
    (fun () -> corrupted_run plan ~at:"gc-old" ~tag:(Netsim.vtag 0) ~switch:1)

(* Two domains each run updates whose first barrier fails: the
   process-wide tally must count every violation either one saw.  Each
   such run aborts on one violating walk ("unaffected path" above). *)
let test_violation_tally_across_domains () =
  let runs = 20_000 in
  let worker () =
    let plan = build_barrier () in
    let seen = ref 0 in
    for _ = 1 to runs do
      match corrupted_run plan ~at:"shadow-depth-1" ~tag:1 ~switch:2 with
      | { Update.outcome = Update.Aborted { op = "verify"; _ }; _ }, _ ->
        incr seen
      | _ -> ()
    done;
    !seen
  in
  let v0 = Update.violations_total () in
  let other = Domain.spawn worker in
  let mine = worker () in
  let theirs = Domain.join other in
  Alcotest.(check int) "both domains ran their updates" (2 * runs)
    (mine + theirs);
  Alcotest.(check int) "no increment lost" (v0 + mine + theirs)
    (Update.violations_total ())

(* ------------------------------------------------------------------ *)
(* Satellite: forward vs rollback-compensation backoff accounting.     *)

let backoff_buckets = [| 0.001; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

let op_hist () =
  Metrics.histogram ~buckets:backoff_buckets
    "sdnplace_switch_op_backoff_seconds"

let rb_hist () =
  Metrics.histogram ~buckets:backoff_buckets
    "sdnplace_switch_rollback_backoff_seconds"

let hist_sum h = (Metrics.snapshot h).Metrics.sum

let test_backoff_split_accounting () =
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ()) @@ fun () ->
  (* --- unit level: one forward retry, one compensation retry -------- *)
  let op0 = hist_sum (op_hist ()) and rb0 = hist_sum (rb_hist ()) in
  let fault = Fault_plan.make ~seed:7 () in
  let api = Switch_api.create ~fault [| [] |] in
  Fault_plan.fail_next fault 1;
  Alcotest.(check bool) "forward install retries into success" true
    (Switch_api.install api ~switch:0 (entry 0 1));
  let op1 = hist_sum (op_hist ()) and rb1 = hist_sum (rb_hist ()) in
  Alcotest.(check bool) "forward backoff lands in the op histogram" true
    (op1 > op0);
  Alcotest.(check (float 0.0)) "no rollback backoff yet" rb0 rb1;
  Fault_plan.fail_next fault 1;
  Alcotest.(check bool) "compensating delete retries into success" true
    (Switch_api.compensating api (fun () ->
         Switch_api.delete api ~switch:0 (entry 0 1)));
  let op2 = hist_sum (op_hist ()) and rb2 = hist_sum (rb_hist ()) in
  Alcotest.(check (float 0.0)) "compensation did not touch the op histogram"
    op1 op2;
  Alcotest.(check bool) "compensation backoff lands in the rollback histogram"
    true (rb2 > rb1);
  (* the regression this split pins: the instance record keeps the
     total, each histogram only its own share *)
  Alcotest.(check (float 1e-9))
    "instance backoff_s = forward + compensation"
    ((op2 -. op0) +. (rb2 -. rb0))
    (Switch_api.stats api).Switch_api.backoff_s;
  (* --- wave level: an aborted wave's compensation stays out of the
         forward series, and the wave metrics advance ----------------- *)
  let waves0 =
    Metrics.counter_value (Metrics.counter "sdnplace_update_waves_total")
  and rolls0 =
    Metrics.counter_value
      (Metrics.counter "sdnplace_update_wave_rollbacks_total")
  and wlat0 =
    (Metrics.snapshot (Metrics.histogram "sdnplace_update_wave_seconds"))
      .Metrics.count
  in
  let plan = build_small () in
  let fault = Fault_plan.make ~seed:8 () in
  let api = Switch_api.create ~fault (Array.copy (old_tables ())) in
  let op3 = hist_sum (op_hist ()) and rb3 = hist_sum (rb_hist ()) in
  let b3 = (Switch_api.stats api).Switch_api.backoff_s in
  let ops = ref 0 in
  (* op 2 exhausts its 4 retries (5 forced fails), then the compensation
     of op 1 retries once (1 more forced fail) before succeeding *)
  let on_op ~switch:_ ~op:_ =
    incr ops;
    if !ops = 2 then Fault_plan.fail_next fault 6
  in
  let r = Update.execute ~on_op ~api plan in
  Alcotest.(check bool) "wave retry commits" true
    (r.Update.outcome = Update.Committed);
  let op4 = hist_sum (op_hist ()) and rb4 = hist_sum (rb_hist ()) in
  Alcotest.(check bool) "aborted op's own backoff is forward" true (op4 > op3);
  Alcotest.(check bool) "its compensation is rollback" true (rb4 > rb3);
  Alcotest.(check (float 1e-9))
    "wave rollback counts each op's backoff once" ((op4 -. op3) +. (rb4 -. rb3))
    ((Switch_api.stats api).Switch_api.backoff_s -. b3);
  Alcotest.(check int) "wave counter advanced by the plan's waves"
    (waves0 + Array.length plan.Update.waves)
    (Metrics.counter_value (Metrics.counter "sdnplace_update_waves_total"));
  Alcotest.(check int) "rollback counter advanced" (rolls0 + 1)
    (Metrics.counter_value
       (Metrics.counter "sdnplace_update_wave_rollbacks_total"));
  Alcotest.(check int) "wave latency observed per committed wave"
    (wlat0 + Array.length plan.Update.waves)
    (Metrics.snapshot (Metrics.histogram "sdnplace_update_wave_seconds"))
      .Metrics.count

(* ------------------------------------------------------------------ *)
(* The affected set is the per-tag filter's.                           *)

(* Every plain tag whose projection the per-tag filter finds changed,
   plus every ingress whose routed paths changed. *)
let reference_affected (plan : Update.plan) =
  List.sort_uniq compare
    (List.filter
       (fun i -> not (Netsim.is_version_tag i || Netsim.is_stamp_tag i))
       (Test_netsim.reference_changed_tags plan.Update.old_tables
          plan.Update.target)
    @ List.filter_map
        (fun ip ->
          if ip.Update.old_paths <> ip.Update.new_paths then
            Some ip.Update.ingress
          else None)
        plan.Update.corpus)

let test_affected_matches_reference () =
  let check name plan =
    Alcotest.(check (list int))
      name (reference_affected plan) plan.Update.affected
  in
  check "small corpus" (build_small ());
  check "barrier corpus" (build_barrier ());
  for seed = 0 to 299 do
    let plan, _, _ = Test_transaction_props.random_update (Prng.create seed) in
    check (Printf.sprintf "random update %d" seed) plan
  done

let suite =
  [
    Alcotest.test_case "plan has the protocol's wave structure" `Quick
      test_plan_structure;
    Alcotest.test_case "the affected set is the per-tag filter's" `Quick
      test_affected_matches_reference;
    Alcotest.test_case "clean execution lands exactly on the target" `Quick
      test_clean_execute;
    Alcotest.test_case "a failed op rolls the wave back and retries" `Quick
      test_wave_rollback_then_commit;
    Alcotest.test_case "an exhausted wave aborts to pre-update tables" `Quick
      test_abort_restores_pre_update;
    Alcotest.test_case "forward and compensation backoff split cleanly" `Quick
      test_backoff_split_accounting;
    Alcotest.test_case "a barrier catches a corrupted unaffected path" `Quick
      test_barrier_catches_unaffected;
    Alcotest.test_case "a barrier catches a corrupted version tag" `Quick
      test_barrier_catches_version_tag;
    Alcotest.test_case "the violation tally loses nothing across domains"
      `Quick test_violation_tally_across_domains;
  ]
