(* The fault-tolerant controller runtime: degradation-ladder rungs,
   rollback of the direct plan, quarantine fencing, retry/backoff accounting
   and seeded replayability. *)
open Placement
open Runtime

let entry tag p =
  {
    Netsim.tags = [ tag ];
    rule =
      Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Permit ~priority:p;
  }

(* Two disjoint switch paths between the host pairs: failures can be
   routed around. *)
let diamond () =
  Topo.Net.create ~num_switches:4
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    ~host_attach:[| 0; 3; 0; 3 |] ()

(* No alternative paths: failures can only be quarantined. *)
let chain () =
  Topo.Net.create ~num_switches:3
    ~edges:[ (0, 1); (1, 2) ]
    ~host_attach:[| 0; 2 |] ()

let test_config () =
  {
    Engine.default_config with
    Engine.solve_options = Test_placement.solve_opts ();
  }

let empty_engine ?config ?fault ?(capacity = 10) net =
  let inst =
    Instance.make ~net ~routing:(Routing.Table.of_paths []) ~policies:[]
      ~capacities:(Instance.uniform_capacity net capacity)
  in
  Engine.create ?config ?fault (Solution.empty inst)

let tenant_policy () =
  Acl.Policy.of_fields
    [
      (Util.field ~src:"10.1.0.0/16" (), Acl.Rule.Permit);
      (Util.field ~dst:"10.0.1.0/24" (), Acl.Rule.Drop);
    ]

let path ~ingress ~egress switches =
  Routing.Path.make ~ingress ~egress ~switches ()

let install_event ?(switches = [ 0; 1; 3 ]) () =
  Event.Install
    {
      ingress = 0;
      policy = tenant_policy ();
      paths = [ path ~ingress:0 ~egress:1 switches ];
    }

let check_report ?rung ?applied ?(verified = true) name (r : Report.t) =
  (match rung with
  | Some want ->
    Alcotest.(check string)
      (name ^ ": rung") (Report.rung_name want) (Report.rung_name r.Report.rung)
  | None -> ());
  (match applied with
  | Some want ->
    Alcotest.(check string)
      (name ^ ": applied") (Report.applied_name want)
      (Report.applied_name r.Report.applied)
  | None -> ());
  Alcotest.(check bool) (name ^ ": verified") verified r.Report.verified

(* ------------------------------------------------------------------ *)

let test_install_and_remove () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let r = Engine.handle eng (install_event ()) in
  check_report ~rung:Report.Incremental ~applied:Report.Committed "install" r;
  Alcotest.(check string) "solve status" "optimal" r.Report.solve_status;
  Alcotest.(check bool) "entries installed" true (Engine.live_entries eng > 0);
  (* The data plane actually forwards/filters for the new tenant. *)
  let tables = Engine.table_snapshot eng in
  let p = path ~ingress:0 ~egress:1 [ 0; 1; 3 ] in
  let blocked =
    Ternary.Packet.make ~src:0 ~dst:(10 lsl 24 lor 256) ~sport:1 ~dport:2
      ~proto:6
  in
  (match Netsim.forward tables p ~tag:0 blocked with
  | Netsim.Dropped _ -> ()
  | Netsim.Delivered -> Alcotest.fail "blacklisted packet delivered");
  let r = Engine.handle eng (Event.Remove { ingresses = [ 0 ] }) in
  check_report ~rung:Report.Noop ~applied:Report.Committed "remove" r;
  Alcotest.(check int) "tables empty again" 0 (Engine.live_entries eng)

let test_rejected_event () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let r = Engine.handle eng (Event.Remove { ingresses = [ 1 ] }) in
  check_report ~rung:Report.Noop ~applied:Report.Kept_last_good "rejected" r;
  Alcotest.(check bool) "status says rejected" true
    (String.length r.Report.solve_status >= 8
    && String.sub r.Report.solve_status 0 8 = "rejected")

let test_forced_rungs () =
  List.iter
    (fun rung ->
      let eng = empty_engine ~config:(test_config ()) (diamond ()) in
      let r = Engine.handle ~rungs:[ rung ] eng (install_event ()) in
      check_report ~rung ~applied:Report.Committed
        ("forced " ^ Report.rung_name rung)
        r)
    [ Report.Incremental; Report.Full_resolve; Report.Greedy ]

let test_ladder_exhausted_quarantines () =
  (* Zero capacity anywhere: every solve rung fails, the runtime must
     fail closed. *)
  let eng = empty_engine ~config:(test_config ()) ~capacity:0 (diamond ()) in
  let r = Engine.handle eng (install_event ()) in
  check_report ~rung:Report.Quarantine ~applied:Report.Kept_last_good
    "exhausted" r;
  Alcotest.(check (list int)) "newly quarantined" [ 0 ]
    r.Report.newly_quarantined;
  (* Fail closed: everything from the fenced ingress dies at its
     attachment switch, even packets its policy would have permitted. *)
  let tables = Engine.table_snapshot eng in
  let p = path ~ingress:0 ~egress:1 [ 0; 1; 3 ] in
  let permitted =
    Ternary.Packet.make ~src:(10 lsl 24 lor (1 lsl 16)) ~dst:0 ~sport:9
      ~dport:9 ~proto:6
  in
  (match Netsim.forward tables p ~tag:0 permitted with
  | Netsim.Dropped 0 -> ()
  | o -> Alcotest.failf "expected drop at switch 0, got %a" Netsim.pp_outcome o)

let test_no_solve_rungs_quarantines () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let r = Engine.handle ~rungs:[] eng (install_event ()) in
  check_report ~rung:Report.Quarantine ~applied:Report.Kept_last_good
    "no rungs" r;
  Alcotest.(check (list int)) "quarantined" [ 0 ] (Engine.quarantined eng)

let test_switch_fail_reroutes () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let _ = Engine.handle eng (install_event ()) in
  (* Kill the middle switch of the tenant's path: the diamond's other
     branch can carry it. *)
  let r = Engine.handle eng (Event.Switch_fail { switch = 1 }) in
  check_report ~applied:Report.Committed "switch fail" r;
  Alcotest.(check bool) "solved on a real rung" true
    (match r.Report.rung with
    | Report.Incremental | Report.Full_resolve | Report.Greedy -> true
    | _ -> false);
  Alcotest.(check (list int)) "nothing quarantined" [] (Engine.quarantined eng);
  Alcotest.(check (list int)) "switch 1 dead" [ 1 ] (Engine.dead_switches eng);
  (* The rerouted tenant still filters on the surviving branch. *)
  let good = Engine.good eng in
  let paths =
    Routing.Table.paths_from good.Solution.instance.Instance.routing 0
  in
  Alcotest.(check bool) "rerouted around switch 1" true
    (paths <> [] && List.for_all (fun p -> not (Routing.Path.mem p 1)) paths)

let test_quarantine_fails_closed_on_chain () =
  let eng = empty_engine ~config:(test_config ()) (chain ()) in
  let r = Engine.handle eng (install_event ~switches:[ 0; 1; 2 ] ()) in
  check_report ~applied:Report.Committed "install on chain" r;
  (* No alternative path: losing the egress switch strands the tenant. *)
  let r = Engine.handle eng (Event.Switch_fail { switch = 2 }) in
  check_report ~rung:Report.Quarantine "stranded" r;
  Alcotest.(check (list int)) "quarantined" [ 0 ] (Engine.quarantined eng);
  let tables = Engine.table_snapshot eng in
  let p = path ~ingress:0 ~egress:1 [ 0; 1; 2 ] in
  (match
     Netsim.forward tables p ~tag:0
       (Ternary.Packet.make ~src:1 ~dst:2 ~sport:3 ~dport:4 ~proto:17)
   with
  | Netsim.Dropped 0 -> ()
  | o -> Alcotest.failf "expected fence drop at switch 0, got %a" Netsim.pp_outcome o);
  (* A departing quarantined tenant releases its fence. *)
  let r = Engine.handle eng (Event.Remove { ingresses = [ 0 ] }) in
  check_report ~applied:Report.Committed "release" r;
  Alcotest.(check (list int)) "fence lifted" [] (Engine.quarantined eng)

(* ------------------------------------------------------------------ *)
(* The direct plan: one add-before-delete wave, rolled back whole     *)

let apply_direct = Test_transaction_props.apply_direct

let test_rollback_byte_identical_on_install_failure () =
  let fault = Fault_plan.make ~seed:11 () in
  let live = [| [ entry 0 5 ]; []; [ entry 1 4 ]; [] |] in
  let api = Switch_api.create ~fault live in
  let before = Switch_api.snapshot api in
  (* Adds land on switches 1 then 2; killing 2 fails the second install
     after the first succeeded — rollback must undo switch 1. *)
  Fault_plan.mark_dead fault 2;
  let target = [| [ entry 0 5 ]; [ entry 2 9 ]; [ entry 1 4; entry 3 1 ]; [] |] in
  (match apply_direct ~api target with
  | Update.Aborted { switch = 2; op = "install" } -> ()
  | Update.Aborted { switch; op } ->
    Alcotest.failf "unexpected rollback point %s@%d" op switch
  | Update.Committed -> Alcotest.fail "expected rollback");
  Alcotest.(check bool) "tables byte-identical" true
    (Switch_api.snapshot api = before)

let test_rollback_byte_identical_on_delete_failure () =
  let fault = Fault_plan.make ~seed:12 () in
  let live = [| [ entry 0 5 ]; []; [ entry 1 4 ]; [] |] in
  let api = Switch_api.create ~fault live in
  let before = Switch_api.snapshot api in
  (* Both installs succeed; the delete on dead switch 0 cannot — the
     rollback deletes the installed entries again. *)
  Fault_plan.mark_dead fault 0;
  let target = [| []; [ entry 2 9 ]; [ entry 1 4; entry 3 1 ]; [] |] in
  (match apply_direct ~api target with
  | Update.Aborted { switch = 0; op = "delete" } -> ()
  | Update.Aborted { switch; op } ->
    Alcotest.failf "unexpected rollback point %s@%d" op switch
  | Update.Committed -> Alcotest.fail "expected rollback");
  Alcotest.(check bool) "tables byte-identical" true
    (Switch_api.snapshot api = before)

let test_transaction_commit_orders_target () =
  let api =
    Switch_api.create ~fault:(Fault_plan.faultless ())
      [| [ entry 0 1; entry 1 2 ] |]
  in
  let target = [| [ entry 1 2; entry 2 7 ] |] in
  (match apply_direct ~api target with
  | Update.Committed -> ()
  | Update.Aborted _ -> Alcotest.fail "expected commit");
  Alcotest.(check bool) "exact target order" true
    ((Switch_api.tables api).(0) = target.(0))

let test_engine_rollback_quarantines () =
  (* Every install attempt on every switch fails: the install event's
     direct plan must roll back and the tenant must end up fenced, with
     the pre-event (empty) tables intact. *)
  let fault = Fault_plan.make ~seed:5 () in
  let net = diamond () in
  let eng = empty_engine ~config:(test_config ()) ~fault net in
  Fault_plan.fail_next fault 1000;
  let r = Engine.handle eng (install_event ()) in
  (match r.Report.applied with
  | Report.Rolled_back _ -> ()
  | a -> Alcotest.failf "expected rollback, got %s" (Report.applied_name a));
  Alcotest.(check bool) "verified after rollback" true r.Report.verified;
  Alcotest.(check (list int)) "tenant fenced" [ 0 ] (Engine.quarantined eng);
  Alcotest.(check bool) "retries were spent" true (r.Report.retries > 0);
  (* Only the forced fence remains; every other write was undone. *)
  Alcotest.(check int) "only the fence installed" 1 (Engine.live_entries eng)

(* ------------------------------------------------------------------ *)
(* Retry/backoff accounting                                            *)

let test_retry_backoff_accounting () =
  let fault = Fault_plan.make ~fail_rate:0.3 ~timeout_rate:0.2 ~seed:21 () in
  let api = Switch_api.create ~fault [| [] |] in
  for p = 1 to 30 do
    ignore (Switch_api.install api ~switch:0 (entry 0 p))
  done;
  let s = Switch_api.stats api in
  Alcotest.(check int) "attempts = ops + retries" (30 + s.Switch_api.retries)
    s.Switch_api.attempts;
  Alcotest.(check bool) "faults observed" true
    (s.Switch_api.failures + s.Switch_api.timeouts > 0);
  Alcotest.(check bool) "retries happened" true (s.Switch_api.retries > 0);
  Alcotest.(check bool) "backoff accumulated" true
    (s.Switch_api.backoff_s > 0.);
  (* A switch that always fails: the operation gives up after 4 retries,
     accruing at most (0.01 + 0.02 + 0.04 + 0.08) x 1.5 s. *)
  let fault = Fault_plan.make ~fail_rate:1.0 ~seed:31 () in
  let api = Switch_api.create ~fault [| [] |] in
  Alcotest.(check bool) "operation gives up" false
    (Switch_api.install api ~switch:0 (entry 0 1));
  let s = Switch_api.stats api in
  Alcotest.(check int) "five attempts" 5 s.Switch_api.attempts;
  Alcotest.(check int) "four retries" 4 s.Switch_api.retries;
  Alcotest.(check bool) "backoff within the policy's bound" true
    (s.Switch_api.backoff_s >= 0.075 && s.Switch_api.backoff_s < 0.225)

(* ------------------------------------------------------------------ *)
(* Deadline-bounded incremental solves                                 *)

let test_incremental_deadline_prompt () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let _ = Engine.handle eng (install_event ()) in
  let base = Engine.good eng in
  let t0 = Unix.gettimeofday () in
  let r =
    Incremental.install
      ~options:(Test_placement.solve_opts ())
      ~deadline:(t0 -. 1.0) (* already expired *)
      ~base
      ~policies:[ (2, tenant_policy ()) ]
      ~paths:[ path ~ingress:2 ~egress:3 [ 0; 2; 3 ] ]
      ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returns promptly" true (elapsed < 5.0);
  (* An expired deadline may still return the warm-start incumbent, but
     can never block or crash. *)
  ignore r.Incremental.status

(* ------------------------------------------------------------------ *)
(* Update paths: consistent waves and the direct-plan fallback       *)

let test_consistent_waves () =
  (* a committing install reports its waves *)
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  let r = Engine.handle eng (install_event ()) in
  check_report ~applied:Report.Committed "consistent install" r;
  Alcotest.(check bool) "waves reported" true (r.Report.waves > 0);
  Alcotest.(check bool) "signature carries the wave count" true
    (let sig_ = Report.signature r in
     let want = Printf.sprintf "waves=%d" r.Report.waves in
     let n = String.length sig_ and m = String.length want in
     n >= m && String.sub sig_ (n - m) m = want)

let test_consistent_falls_back_to_legacy () =
  (* Exhaust the consistent path deterministically: a forced-fail burst
     long enough to burn the first operation's whole retry budget
     (1 + 4 retries) on both attempts of the wave (one wave retry).  The
     wave aborts, the engine degrades to the direct plan — whose draws
     are clean again — and the report must say so. *)
  let fault = Fault_plan.make ~seed:41 () in
  let eng = empty_engine ~config:(test_config ()) ~fault (diamond ()) in
  Fault_plan.fail_next fault 10;
  let r = Engine.handle eng (install_event ()) in
  check_report ~applied:Report.Committed_fallback "degraded install" r;
  Alcotest.(check int) "no waves survived" 0 r.Report.waves;
  Alcotest.(check bool) "entries installed by the fallback" true
    (Engine.live_entries eng > 0)

(* ------------------------------------------------------------------ *)
(* Seeded chaos: replayability and per-event verification              *)

let chaos_run ~seed n =
  let fault = Fault_plan.make ~fail_rate:0.12 ~timeout_rate:0.08 ~seed () in
  let eng = empty_engine ~config:(test_config ()) ~fault (diamond ()) in
  let churn = Churn.make ~rules:4 ~seed:(seed * 7 + 1) () in
  Churn.drive churn eng n

let test_chaos_verified () =
  let reports = chaos_run ~seed:3 30 in
  Alcotest.(check int) "all events reported" 30 (List.length reports);
  List.iteri
    (fun i (r : Report.t) ->
      if not r.Report.verified then
        Alcotest.failf "event %d failed verification: %s" i (Report.signature r))
    reports

let test_chaos_deterministic () =
  let sigs n = List.map Report.signature (chaos_run ~seed:9 n) in
  Alcotest.(check (list string)) "same seed, same transition reports"
    (sigs 25) (sigs 25)

(* The chaos stream's exact bytes, pinned: a refactor of event drawing
   or planning must leave every report signature unchanged. *)
let test_chaos_golden () =
  let sigs = List.map Report.signature (chaos_run ~seed:9 40) in
  Alcotest.(check string) "seed 9 signatures digest" "4dbe93f51f6a8b7dc4fd691a75245ab2"
    (Digest.to_hex (Digest.string (String.concat "\n" sigs)))

(* ------------------------------------------------------------------ *)
(* Runtime verification fails on a corrupted data plane                *)

let verify_checks = [ "structural"; "semantic"; "live"; "fence"; "exception" ]

let verify_failures check =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter ~labels:[ ("check", check) ]
       "sdnplace_runtime_verify_failures_total")

let with_metrics f =
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Telemetry.Metrics.disable ())
    f

(* Host 3 carries no policy and is not fenced: the event is rejected,
   changes nothing and re-verifies the engine as it stands. *)
let noop_event = Event.Remove { ingresses = [ 3 ] }

(* Force [tables] into [eng]'s data plane behind the engine's back: drift
   the next verify must see. *)
let resync eng tables = Switch_api.restore (Engine.switch_api eng) tables

(* Force [corrupt tables] into the data plane, send the no-op event and
   check that exactly the [failed] check counts the failure ([None]: the
   event verifies and nothing counts); then put the tables back. *)
let reverify name eng ~corrupt ~failed =
  let tables = Engine.table_snapshot eng in
  resync eng (corrupt tables);
  let before = List.map verify_failures verify_checks in
  let r = Engine.handle eng noop_event in
  check_report ~rung:Report.Noop ~verified:(failed = None) name r;
  List.iter2
    (fun check b ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s failures" name check)
        (if Some check = failed then 1 else 0)
        (verify_failures check - b))
    verify_checks before;
  resync eng tables

let is_tenant action (e : Netsim.entry) =
  e.Netsim.tags = [ 0 ]
  && Acl.Rule.action_equal e.Netsim.rule.Acl.Rule.action action

let test_runtime_verify_catches_corruption () =
  with_metrics @@ fun () ->
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  check_report ~applied:Report.Committed "install"
    (Engine.handle eng (install_event ()));
  let q = tenant_policy () in
  let witnesses = List.of_seq (Seq.take 16 (Acl.Policy.witness_seq q)) in
  let verdicts = List.map (Acl.Policy.evaluate q) witnesses in
  Alcotest.(check bool) "a witness the policy drops" true
    (List.mem Acl.Rule.Drop verdicts);
  Alcotest.(check bool) "a witness in both the permit and the drop" true
    (List.exists
       (fun p ->
         List.for_all
           (fun (r : Acl.Rule.t) -> Acl.Rule.matches r p)
           (Acl.Policy.rules q))
       witnesses);
  let drop_at =
    List.concat
      (List.mapi
         (fun k entries ->
           List.filter_map
             (fun e -> if is_tenant Acl.Rule.Drop e then Some k else None)
             entries)
         (Array.to_list (Engine.table_snapshot eng)))
  in
  let k =
    match drop_at with
    | [ k ] -> k
    | _ -> Alcotest.fail "expected one installed copy of the drop"
  in
  reverify "uncorrupted" eng ~corrupt:Fun.id ~failed:None;
  reverify "drop removed" eng
    ~corrupt:(fun t ->
      let t = Array.copy t in
      t.(k) <- List.filter (fun e -> not (is_tenant Acl.Rule.Drop e)) t.(k);
      t)
    ~failed:(Some "live");
  reverify "permit below its drop" eng
    ~corrupt:(fun t ->
      let t = Array.copy t in
      let permits, rest = List.partition (is_tenant Acl.Rule.Permit) t.(k) in
      Alcotest.(check bool) "the permit sits with its drop" true
        (permits <> []);
      t.(k) <- rest @ permits;
      t)
    ~failed:(Some "live");
  reverify "restored" eng ~corrupt:Fun.id ~failed:None;
  (* A fenced tenant: stranded on the chain, its fence at switch 0. *)
  let eng = empty_engine ~config:(test_config ()) (chain ()) in
  ignore (Engine.handle eng (install_event ~switches:[ 0; 1; 2 ] ()));
  check_report ~rung:Report.Quarantine "stranded"
    (Engine.handle eng (Event.Switch_fail { switch = 2 }));
  Alcotest.(check (list int)) "quarantined" [ 0 ] (Engine.quarantined eng);
  reverify "fenced" eng ~corrupt:Fun.id ~failed:None;
  reverify "fence stripped" eng
    ~corrupt:(fun t ->
      let t = Array.copy t in
      t.(0) <-
        List.filter
          (fun (e : Netsim.entry) -> e.Netsim.rule.Acl.Rule.priority <> max_int)
          t.(0);
      t)
    ~failed:(Some "fence")

(* ------------------------------------------------------------------ *)
(* The verify memo: a reused verdict is the one a full check gives      *)

let skipped check =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter ~labels:[ ("check", check) ]
       "sdnplace_runtime_verify_skipped_total")

let entries_scanned () =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter "sdnplace_runtime_entries_scanned_total")

let probe_walks () =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter "sdnplace_update_probe_walks_total")

let switches_rebuilt () =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter "sdnplace_runtime_switches_rebuilt_total")

let structural_checked () =
  Telemetry.Metrics.counter_value
    (Telemetry.Metrics.counter "sdnplace_runtime_structural_checked_total")

(* Tenants on hosts 0 and 2, both entering at switch 0. *)
let two_tenants () =
  let eng = empty_engine ~config:(test_config ()) (diamond ()) in
  check_report ~applied:Report.Committed "install 0"
    (Engine.handle eng (install_event ()));
  check_report ~applied:Report.Committed "install 2"
    (Engine.handle eng
       (Event.Install
          {
            ingress = 2;
            policy = tenant_policy ();
            paths = [ path ~ingress:2 ~egress:3 [ 0; 2; 3 ] ];
          }));
  eng

(* The switch holding tenant 0's drop. *)
let drop_switch eng =
  let tables = Engine.table_snapshot eng in
  let rec find k =
    if k >= Array.length tables then Alcotest.fail "tenant 0 has no drop"
    else if List.exists (is_tenant Acl.Rule.Drop) tables.(k) then k
    else find (k + 1)
  in
  find 0

let test_memo_sees_live_drift () =
  with_metrics @@ fun () ->
  let drifts =
    [
      ( "a switch api delete",
        fun eng k ->
          let api = Engine.switch_api eng in
          List.iter
            (fun e ->
              if is_tenant Acl.Rule.Drop e then
                Alcotest.(check bool) "delete succeeds" true
                  (Switch_api.delete api ~switch:k e))
            (Switch_api.tables api).(k) );
      ( "an in-place slot write",
        fun eng k ->
          let live = Switch_api.tables (Engine.switch_api eng) in
          live.(k) <-
            List.filter (fun e -> not (is_tenant Acl.Rule.Drop e)) live.(k) );
    ]
  in
  List.iter
    (fun (how, drift) ->
      let reused0 = skipped "live" in
      let eng = two_tenants () in
      let tables = Engine.table_snapshot eng in
      (* The last event touched tenant 2 only: tenant 0's verdict was
         reused, and its tables now drift. *)
      Alcotest.(check int) (how ^ ": tenant 0 reused") 1
        (skipped "live" - reused0);
      drift eng (drop_switch eng);
      let live0 = verify_failures "live" in
      check_report ~rung:Report.Noop ~verified:false (how ^ ": next verify")
        (Engine.handle eng noop_event);
      check_report ~rung:Report.Noop ~verified:false
        (how ^ ": the no-op after it")
        (Engine.handle eng noop_event);
      Alcotest.(check int) (how ^ ": live failures counted") 2
        (verify_failures "live" - live0);
      resync eng tables;
      check_report ~rung:Report.Noop (how ^ ": repaired")
        (Engine.handle eng noop_event))
    drifts

(* An engine booted from a placement owns its live tables: a write into
   the [Switch_api.tables] slots changes the data plane only, never the
   declared tables the next verify compares against, so it is drift
   (the live check fails, the semantic one holds), whether it lands
   before the engine's first verify or after one. *)
let test_boot_tables_unaliased () =
  with_metrics @@ fun () ->
  let good = Engine.good (two_tenants ()) in
  let declared = (Tables.of_solution good).Tables.tables in
  let eng = Engine.create ~config:(test_config ()) good in
  let k = drop_switch eng in
  let write () =
    let live = Switch_api.tables (Engine.switch_api eng) in
    live.(k) <- List.filter (fun e -> not (is_tenant Acl.Rule.Drop e)) live.(k)
  in
  let drifted name =
    let live0 = verify_failures "live"
    and semantic0 = verify_failures "semantic" in
    check_report ~rung:Report.Noop ~verified:false name
      (Engine.handle eng noop_event);
    Alcotest.(check int) (name ^ ": live failure") 1
      (verify_failures "live" - live0);
    Alcotest.(check int) (name ^ ": declared tables hold") 0
      (verify_failures "semantic" - semantic0);
    Alcotest.(check bool) (name ^ ": declared tables unchanged") true
      ((Tables.of_solution (Engine.good eng)).Tables.tables = declared)
  in
  write ();
  drifted "write before the first verify";
  resync eng declared;
  check_report ~rung:Report.Noop "repaired" (Engine.handle eng noop_event);
  write ();
  drifted "write after a verify"

(* A fresh engine restored from the same state has an empty memo, so
   its verify is a full check. *)
let full_check_twin eng =
  Engine.restore ~config:(test_config ())
    (Marshal.from_string (Marshal.to_string (Engine.capture eng) []) 0)

let test_memo_keeps_failed_verdict () =
  let eng = two_tenants () in
  let k = drop_switch eng in
  let tables = Engine.table_snapshot eng in
  resync eng
    (Array.mapi
       (fun j t ->
         if j = k then List.filter (fun e -> not (is_tenant Acl.Rule.Drop e)) t
         else t)
       tables);
  check_report ~verified:false "corrupted" (Engine.handle eng noop_event);
  let twin = full_check_twin eng in
  let r = Engine.handle eng noop_event and r' = Engine.handle twin noop_event in
  check_report ~verified:false "no-op after a failed verify" r;
  Alcotest.(check string) "memo verdict = full check verdict"
    (Report.signature r') (Report.signature r);
  resync eng tables;
  resync twin tables;
  let r = Engine.handle eng noop_event and r' = Engine.handle twin noop_event in
  check_report "repaired" r;
  Alcotest.(check string) "repaired: memo verdict = full check verdict"
    (Report.signature r') (Report.signature r)

(* A k=4 base of eight tenants under faults, driven by churn. *)
let churn_base () =
  let inst =
    Workload.build
      { Workload.default with Workload.rules = 6; paths = 24; capacity = 40 }
  in
  let options = Test_placement.solve_opts () in
  match (Solve.run ~options inst).Solve.solution with
  | Some sol ->
    let fault = Fault_plan.make ~fail_rate:0.1 ~timeout_rate:0.05 ~seed:11 () in
    ( Engine.create ~config:(test_config ()) ~fault sol,
      Churn.make ~rules:4 ~seed:23 () )
  | None -> Alcotest.fail "churn base did not solve"

let test_restore_mid_stream () =
  let sigs reports = List.map Report.signature reports in
  let eng, churn = churn_base () in
  let straight = sigs (Churn.drive churn eng 30) in
  let eng, churn = churn_base () in
  let first = sigs (Churn.drive churn eng 12) in
  let eng = full_check_twin eng in
  let churn = Churn.restore (Churn.capture churn) in
  let rest = sigs (Churn.drive churn eng 18) in
  Alcotest.(check (list string)) "restored mid-stream = uninterrupted" straight
    (first @ rest)

(* At k=16 (320 switches) a no-op event reads no table entry, walks no
   probe, orders no switch's table and checks no policy's structure; a
   one-tenant install reads and orders only the switches it changed,
   checks the structure of the tenants placed there and walks no probe
   either: every barrier proves its paths by projection. *)
let test_k16_event_costs_the_change () =
  with_metrics @@ fun () ->
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.k = 16;
        num_policies = 48;
        rules = 10;
        paths = 64;
        capacity = 60;
      }
  in
  let options = Test_placement.solve_opts () in
  let sol =
    match (Solve.run ~options inst).Solve.solution with
    | Some sol -> sol
    | None -> Alcotest.fail "k=16 base did not solve"
  in
  let eng = Engine.create ~config:(test_config ()) sol in
  let net = inst.Instance.net in
  let policies = List.length inst.Instance.policies in
  let idle =
    match Churn.free_hosts net ~dead:[] ~taken:(Instance.ingresses inst) with
    | h :: _ -> h
    | [] -> Alcotest.fail "no free host"
  in
  let noop = Event.Remove { ingresses = [ idle ] } in
  check_report ~rung:Report.Noop "warm-up" (Engine.handle eng noop);
  let cost f =
    let s0 = entries_scanned ()
    and w0 = probe_walks ()
    and sem0 = skipped "semantic"
    and live0 = skipped "live"
    and b0 = switches_rebuilt ()
    and c0 = structural_checked () in
    let r = f () in
    ( r,
      entries_scanned () - s0,
      probe_walks () - w0,
      skipped "semantic" - sem0,
      skipped "live" - live0,
      (switches_rebuilt () - b0, structural_checked () - c0) )
  in
  let r, scanned, walks, sem, live, rebuilt_checked =
    cost (fun () -> Engine.handle eng noop)
  in
  check_report ~rung:Report.Noop "no-op" r;
  Alcotest.(check int) "no-op: entries scanned" 0 scanned;
  Alcotest.(check int) "no-op: probes walked" 0 walks;
  Alcotest.(check (pair int int)) "no-op: every verdict reused"
    (policies, policies) (sem, live);
  Alcotest.(check (pair int int))
    "no-op: no switch rebuilt, no structure checked" (0, 0) rebuilt_checked;
  let cells_before = Array.copy (Engine.good eng).Solution.per_switch in
  let g = Prng.create 5 in
  let paths = Churn.fresh_paths g net ~dead:[] idle in
  let policy = Churn.fresh_policy g net ~dead:[] idle paths ~rules:4 in
  let before = Engine.table_snapshot eng in
  let r, scanned, walks, sem, live, (rebuilt, checked) =
    cost (fun () ->
        Engine.handle eng (Event.Install { ingress = idle; policy; paths }))
  in
  check_report ~applied:Report.Committed "one-tenant install" r;
  Alcotest.(check bool) "install: waves ran" true (r.Report.waves > 0);
  Alcotest.(check int) "install: probes walked" 0 walks;
  let after = Engine.table_snapshot eng in
  let changed = ref 0 and total = ref 0 in
  Array.iteri
    (fun k a ->
      let b = after.(k) in
      total := !total + List.length b;
      if a <> b then changed := !changed + List.length a + List.length b)
    before;
  (* One diff in Update.build, two in verify (declared and live), each
     reading only the switches whose tables differ. *)
  Alcotest.(check bool)
    (Printf.sprintf "install: %d entries scanned <= 3 x %d" scanned !changed)
    true
    (scanned > 0 && scanned <= 3 * !changed);
  Alcotest.(check bool)
    (Printf.sprintf "install: the change (%d) is a sliver of the tables (%d)"
       !changed !total)
    true
    (10 * !changed < !total);
  Alcotest.(check (pair int int)) "install: only the new tenant is walked"
    (policies, policies) (sem, live);
  (* The switches whose cells changed, and the tenants with a rule on
     one of them before or after: exactly what the event re-orders and
     re-checks. *)
  let cells_after = (Engine.good eng).Solution.per_switch in
  let moved = ref [] and tenants = ref [] in
  Array.iteri
    (fun k was ->
      if was <> cells_after.(k) then begin
        moved := k :: !moved;
        List.iter
          (fun (c : Solution.cell) ->
            List.iter (fun (i, _) -> tenants := i :: !tenants) c.Solution.tags)
          (was @ cells_after.(k))
      end)
    cells_before;
  let tenants = List.sort_uniq compare !tenants in
  Alcotest.(check bool) "install: the new tenant is among them" true
    (List.mem idle tenants);
  Alcotest.(check int) "install: switches rebuilt" (List.length !moved) rebuilt;
  Alcotest.(check int)
    "install: policies checked" (List.length tenants) checked;
  Alcotest.(check bool)
    (Printf.sprintf "install: %d switches and %d policies are a sliver" rebuilt
       checked)
    true
    (rebuilt > 0 && 10 * rebuilt < Array.length cells_after
    && 4 * checked <= policies)

(* ------------------------------------------------------------------ *)
(* Declared tables and structure follow the solution's diff            *)

(* An event every plan rejects: it re-verifies the engine as it stands. *)
let reverify_event = Event.Switch_fail { switch = -1 }

(* The engine's last verify against a from-scratch one: its patched
   declared tables are [Tables.of_solution]'s, entry for entry and in
   order, and it counted a structure failure exactly when
   [Verify.structural_plain] finds one. *)
let check_against_full name eng ~structural0 =
  let good = Engine.good eng in
  let full = (Tables.of_solution good).Tables.tables in
  Array.iteri
    (fun k t ->
      if t <> full.(k) then
        Alcotest.failf "%s: switch %d's patched table is not of_solution's"
          name k)
    (Engine.declared eng);
  let broken = Verify.structural_plain good <> [] in
  Alcotest.(check bool)
    (name ^ ": scoped structural verdict = full check")
    broken
    (verify_failures "structural" > structural0);
  broken

(* Cut each tenant in turn out of the fullest switch of the good
   placement, in place (a change of the declared placement on that one
   switch, which the next verify must see), re-verify, put the cells
   back and re-verify.  Returns how many cuts broke the structure. *)
let cut_round name eng =
  let cells = (Engine.good eng).Solution.per_switch in
  let k = ref 0 in
  Array.iteri
    (fun j c -> if List.length c > List.length cells.(!k) then k := j)
    cells;
  let k = !k in
  let original = cells.(k) in
  let tenants =
    List.sort_uniq compare
      (List.concat_map
         (fun (c : Solution.cell) -> List.map fst c.Solution.tags)
         original)
  in
  List.fold_left
    (fun broke i ->
      let name = Printf.sprintf "%s, cut %d at %d" name i k in
      let reverify name =
        let structural0 = verify_failures "structural" in
        ignore (Engine.handle eng reverify_event);
        check_against_full name eng ~structural0
      in
      cells.(k) <-
        List.filter_map
          (fun (c : Solution.cell) ->
            match List.filter (fun (j, _) -> j <> i) c.Solution.tags with
            | [] -> None
            | tags -> Some { c with Solution.tags })
          original;
      let cut_broke = reverify name in
      cells.(k) <- original;
      Alcotest.(check bool)
        (name ^ ", put back: sound")
        false
        (reverify (name ^ ", put back"));
      if cut_broke then broke + 1 else broke)
    0 tenants

(* Seeded churn under switch faults, with every third event's ladder
   emptied so it quarantines: after every event, and every cut of a
   round, the engine's verify matches a from-scratch one.  The run
   checks that faults, fences and cuts that break the structure all
   happened, and that the placements were sliced or merged as asked. *)
let differential ~name ~family ~options ~events =
  with_metrics @@ fun () ->
  let inst = Workload.build family in
  let sol =
    match (Solve.run ~options inst).Solve.solution with
    | Some sol -> sol
    | None -> Alcotest.failf "%s: base did not solve" name
  in
  let fault = Fault_plan.make ~fail_rate:0.1 ~timeout_rate:0.05 ~seed:5 () in
  let eng =
    Engine.create
      ~config:{ Engine.default_config with Engine.solve_options = options }
      ~fault sol
  in
  let churn = Churn.make ~rules:4 ~seed:17 () in
  let broke = ref 0 and failures = ref 0 in
  let fenced = ref 0 and merged = ref 0 in
  for e = 1 to events do
    let structural0 = verify_failures "structural" in
    let rungs = if e mod 3 = 0 then Some [] else None in
    let r = Engine.handle ?rungs eng (Churn.next churn eng) in
    let name = Printf.sprintf "%s, event %d" name e in
    Alcotest.(check bool) (name ^ ": sound") false
      (check_against_full name eng ~structural0);
    failures := !failures + r.Report.failures;
    fenced := !fenced + List.length r.Report.newly_quarantined;
    if Solution.merged_cells (Engine.good eng) <> [] then incr merged;
    broke := !broke + cut_round name eng
  done;
  Alcotest.(check bool) (name ^ ": switch faults hit") true (!failures > 0);
  Alcotest.(check bool) (name ^ ": tenants were fenced") true (!fenced > 0);
  Alcotest.(check bool) (name ^ ": cuts broke the structure") true (!broke > 0);
  Alcotest.(check bool) (name ^ ": slicing as asked") options.Solve.slice
    (Engine.good eng).Solution.sliced;
  Alcotest.(check bool) (name ^ ": merging as asked") options.Solve.merge
    (!merged > 0)

let test_diff_k4 () =
  let family =
    { Workload.default with Workload.rules = 6; paths = 24; capacity = 40 }
  in
  List.iter
    (fun (name, family, slice, merge) ->
      differential ~name ~family
        ~options:(Test_placement.solve_opts ~slice ~merge ())
        ~events:30)
    [
      ("k=4", family, false, false);
      ("k=4 sliced", family, true, false);
      ( "k=4 merged",
        {
          family with
          Workload.mergeable = 2;
          ingress_mode = Workload.Contiguous;
        },
        false,
        true );
    ]

let test_diff_k16 () =
  let family =
    {
      Workload.default with
      Workload.k = 16;
      num_policies = 48;
      rules = 10;
      paths = 64;
      capacity = 60;
    }
  in
  List.iter
    (fun (name, slice) ->
      differential ~name ~family
        ~options:(Test_placement.solve_opts ~slice ())
        ~events:12)
    [ ("k=16", false); ("k=16 sliced", true) ]

let suite =
  [
    Alcotest.test_case "install then remove round-trips" `Quick
      test_install_and_remove;
    Alcotest.test_case "malformed events are rejected, state kept" `Quick
      test_rejected_event;
    Alcotest.test_case "each solve rung can carry an event" `Quick
      test_forced_rungs;
    Alcotest.test_case "exhausted ladder fails closed" `Quick
      test_ladder_exhausted_quarantines;
    Alcotest.test_case "empty ladder quarantines immediately" `Quick
      test_no_solve_rungs_quarantines;
    Alcotest.test_case "switch failure reroutes the tenant" `Quick
      test_switch_fail_reroutes;
    Alcotest.test_case "stranded tenant is fenced, then released" `Quick
      test_quarantine_fails_closed_on_chain;
    Alcotest.test_case "rollback on install failure is byte-identical" `Quick
      test_rollback_byte_identical_on_install_failure;
    Alcotest.test_case "rollback on delete failure is byte-identical" `Quick
      test_rollback_byte_identical_on_delete_failure;
    Alcotest.test_case "commit writes the exact target order" `Quick
      test_transaction_commit_orders_target;
    Alcotest.test_case "engine rollback fences the tenant" `Quick
      test_engine_rollback_quarantines;
    Alcotest.test_case "retry/backoff accounting adds up" `Quick
      test_retry_backoff_accounting;
    Alcotest.test_case "expired deadline returns promptly" `Quick
      test_incremental_deadline_prompt;
    Alcotest.test_case "consistent updates report waves" `Quick
      test_consistent_waves;
    Alcotest.test_case "aborted waves degrade to the legacy transaction" `Quick
      test_consistent_falls_back_to_legacy;
    Alcotest.test_case "runtime verify fails on corrupted tables" `Quick
      test_runtime_verify_catches_corruption;
    Alcotest.test_case "verify memo sees live drift on an unaffected tenant"
      `Quick test_memo_sees_live_drift;
    Alcotest.test_case "boot tables are not aliased" `Quick
      test_boot_tables_unaliased;
    Alcotest.test_case "a no-op after a failed verify gives the full verdict"
      `Quick test_memo_keeps_failed_verdict;
    Alcotest.test_case "restore mid-stream replays the same signatures" `Quick
      test_restore_mid_stream;
    Alcotest.test_case "a k=16 event costs the change" `Quick
      test_k16_event_costs_the_change;
    Alcotest.test_case "patched tables and scoped structure at k=4" `Quick
      test_diff_k4;
    Alcotest.test_case "patched tables and scoped structure at k=16" `Quick
      test_diff_k16;
    Alcotest.test_case "chaos run verifies after every event" `Slow
      test_chaos_verified;
    Alcotest.test_case "chaos run replays from its seed" `Slow
      test_chaos_deterministic;
    Alcotest.test_case "chaos run matches its golden signatures" `Slow
      test_chaos_golden;
  ]
