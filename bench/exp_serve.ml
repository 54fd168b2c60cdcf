(* Serving soak: a seeded multi-tenant load storm driven through the
   sdnplace daemon — bursty submits (one flooding tenant included), a
   fair scheduling tick per burst, operator chaos ops, and a kill plan
   that crashes the daemon at WAL kill points mid-update and restarts it
   from its journals.  Gates (CI serve-smoke lane): zero recovery
   divergence, zero lost acked events, a nonzero shed rate with every
   shed typed, and equal seeds giving byte-identical final tenant
   signatures — with and without the crashes, and at every --jobs.

   Two measured sections ride on top of the gates:

   - {e scaling}: the same storm over {e file-backed} stores (real fsync
     barriers) at jobs ∈ {1,2,4,8}.  Each event costs several journal
     fsyncs inside its shard's batch; distinct shards' batches run on
     distinct domains, so the fsync waits overlap — which is where the
     speedup comes from even on a single-core host (fsync blocks in the
     kernel, not on the CPU).
   - {e fsync ablation}: group-commit intake (batch 16) against
     sync-per-admission (batch 1), same file-backed storm, reporting
     intake fsyncs per accepted event. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let tmp_ctr = ref 0

let fresh_tmp_dir () =
  incr tmp_ctr;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdnplace-serve-bench-%d-%d" (Unix.getpid ()) !tmp_ctr)
  in
  rm_rf dir;
  mkdir_p dir;
  dir

type scenario = {
  s_sig : string;
  s_tenant_sigs : (int * string) list;
  s_submitted : int;
  s_accepted : int;
  s_shed : int;
  s_rejected : int;
  s_outcomes : int;
  s_applied : int;
  s_quarantined : int;
  s_lost : (int * int) list;
  s_kills : int;
  s_replayed : int;
  s_reissued : int;
  s_divergences : string list;
  s_latencies : float array;  (* sorted, per scheduling cycle *)
  s_wall : float;
  s_rungs : (string * int) list;
  s_intake_appends : int;
  s_intake_fsyncs : int;
}

(* One full client session against a fresh daemon: [requests] submits in
   bursts of [burst], one fair round per burst, a graceful drain at the
   end.  [kills] is the crash plan as [(shard, countdown)] arms — the
   armed shard's own kill-point callbacks count down (other shards'
   callbacks are ignored), so the plan is deterministic at any [jobs]:
   only each shard's own journal stream is schedule-independent.  Every
   crash abandons the daemon (unsynced store bytes included) and
   restarts it from the journals with the same seed.  With [~dir] the
   stores are file-backed (real fsync; [kills] must be [] — a process
   crash cannot be simulated under a live filesystem).  Fully
   deterministic given equal arguments. *)
let run_scenario ~config ~seed ~tenants ~requests ~burst ~kills ?(flood_bias = 2)
    ?weights ?dir () =
  let nshards = config.Serve.Daemon.shards in
  let backing =
    match dir with
    | Some _ -> [||]
    | None ->
      Array.init nshards (fun _ ->
          let journal, jmem = Journal.Store.memory () in
          let intake, imem = Journal.Store.memory () in
          ({ Serve.Shard.journal; intake }, jmem, imem))
  in
  let stores i =
    match dir with
    | None ->
      let s, _, _ = backing.(i) in
      s
    | Some dir ->
      let shard_dir = Filename.concat dir (Printf.sprintf "shard-%d" i) in
      mkdir_p shard_dir;
      {
        Serve.Shard.journal =
          Journal.Store.file ~dir:(Filename.concat shard_dir "journal");
        intake = Journal.Store.file ~dir:(Filename.concat shard_dir "intake");
      }
  in
  let crash_stores () =
    Array.iter
      (fun (_, jmem, imem) ->
        Journal.Store.crash jmem;
        Journal.Store.crash imem)
      backing
  in
  if dir <> None && kills <> [] then
    invalid_arg "run_scenario: kill plans need scriptable (memory) stores";
  let kill_plan = ref kills in
  let armed = ref None in
  let arm () =
    match !kill_plan with
    | (s, n) :: rest ->
      kill_plan := rest;
      armed := Some (s, n)
    | [] -> armed := None
  in
  arm ();
  let kill ~shard _point =
    match !armed with
    | Some (s, n) when s = shard ->
      if n <= 0 then raise (Journal.Journaled.Killed "serve-soak")
      else armed := Some (s, n - 1)
    | _ -> ()
  in
  let gen = Serve.Loadgen.make ?weights ~tenants ~flood_bias ~seed () in
  let daemon = ref (Serve.Daemon.create ~config ~kill ~stores ()) in
  let accepted = Hashtbl.create 256 in
  let outcomes = Hashtbl.create 256 in
  let rungs = Hashtbl.create 8 in
  let submitted = ref 0 in
  let shed = ref 0 in
  let rejected = ref 0 in
  let applied = ref 0 in
  let quarantined = ref 0 in
  let kills_done = ref 0 in
  let replayed = ref 0 in
  let reissued = ref 0 in
  let divergences = ref [] in
  let latencies = ref [] in
  let intake_appends = ref 0 in
  let intake_fsyncs = ref 0 in
  let record_reply = function
    | Serve.Wire.Accepted { tenant; ticket } ->
      Hashtbl.replace accepted (tenant, ticket) ()
    | Serve.Wire.Rejected_overload _ -> incr shed
    | Serve.Wire.Rejected _ -> incr rejected
    | Serve.Wire.Applied { tenant; ticket; rung; _ } ->
      if not (Hashtbl.mem outcomes (tenant, ticket)) then incr applied;
      Hashtbl.replace outcomes (tenant, ticket) ();
      let name = Runtime.Report.rung_name rung in
      Hashtbl.replace rungs name
        (1 + Option.value (Hashtbl.find_opt rungs name) ~default:0)
    | Serve.Wire.Quarantined_ticket { tenant; ticket; _ } ->
      if not (Hashtbl.mem outcomes (tenant, ticket)) then incr quarantined;
      Hashtbl.replace outcomes (tenant, ticket) ()
    | Serve.Wire.Drained _ | Serve.Wire.Stats_reply _
    | Serve.Wire.Metrics_text _ | Serve.Wire.Traffic_report _ -> ()
  in
  (* A restarted daemon gets fresh intake counters; fold the dead one's
     into the running totals (and join its worker domains — leaked
     domains accumulate across restarts, and OCaml caps live domains). *)
  let retire d =
    let st = Serve.Daemon.intake_stats d in
    intake_appends := !intake_appends + st.Serve.Daemon.appends;
    intake_fsyncs := !intake_fsyncs + st.Serve.Daemon.fsyncs;
    Serve.Daemon.shutdown d
  in
  let restart () =
    incr kills_done;
    retire !daemon;
    crash_stores ();
    arm ();
    let s =
      match Serve.Daemon.start ~config ~kill ~stores () with
      | Ok s -> s
      | Error { Serve.Daemon.shard; reason } ->
        failwith (Printf.sprintf "serve restart: shard %d: %s" shard reason)
    in
    replayed := !replayed + s.Serve.Daemon.replayed;
    reissued := !reissued + s.Serve.Daemon.reissued;
    divergences := !divergences @ s.Serve.Daemon.divergences;
    daemon := s.Serve.Daemon.daemon
  in
  let (), wall =
    Harness.wall (fun () ->
        while !submitted < requests do
          let t0 = Unix.gettimeofday () in
          (* Admission never touches the journal, so the burst cannot
             crash; acks are recorded before the tick that can.  (Under
             group commit some acks surface from the tick's flush —
             still before any processing of those events.) *)
          for _ = 1 to min burst (requests - !submitted) do
            let req = Serve.Loadgen.next gen in
            incr submitted;
            List.iter record_reply (Serve.Daemon.submit !daemon req)
          done;
          (match Serve.Daemon.tick !daemon with
          | replies ->
            List.iter record_reply replies;
            latencies := (Unix.gettimeofday () -. t0) :: !latencies
          | exception Journal.Journaled.Killed _ -> restart ())
        done;
        armed := None;
        List.iter record_reply (Serve.Daemon.drain !daemon))
  in
  let lost =
    Hashtbl.fold
      (fun (tenant, ticket) () acc ->
        if Serve.Daemon.resolved !daemon ~tenant ~ticket then acc
        else (tenant, ticket) :: acc)
      accepted []
  in
  let result =
    {
      s_sig = Serve.Daemon.signature !daemon;
      s_tenant_sigs = Serve.Daemon.tenant_signatures !daemon;
      s_submitted = !submitted;
      s_accepted = Hashtbl.length accepted;
      s_shed = !shed;
      s_rejected = !rejected;
      s_outcomes = Hashtbl.length outcomes;
      s_applied = !applied;
      s_quarantined = !quarantined;
      s_lost = List.sort compare lost;
      s_kills = !kills_done;
      s_replayed = !replayed;
      s_reissued = !reissued;
      s_divergences = !divergences;
      s_latencies =
        (let a = Array.of_list !latencies in
         Array.sort compare a;
         a);
      s_wall = wall;
      s_rungs =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rungs []);
      s_intake_appends =
        !intake_appends + (Serve.Daemon.intake_stats !daemon).Serve.Daemon.appends;
      s_intake_fsyncs =
        !intake_fsyncs + (Serve.Daemon.intake_stats !daemon).Serve.Daemon.fsyncs;
    }
  in
  retire !daemon;
  result

let fsyncs_per_event s =
  float_of_int s.s_intake_fsyncs /. float_of_int (max 1 s.s_accepted)

let run ~title ~seed ~smoke () =
  let requests = if smoke then 360 else 1200 in
  let tenants = if smoke then 6 else 10 in
  let burst = 4 in
  (* Countdowns count the armed shard's kill-point callbacks, about 8
     per event that runs a wave update. *)
  let kills =
    if smoke then [ (0, 75); (1, 130) ]
    else [ (1, 150); (3, 75); (0, 400) ]
  in
  let config jobs batch_fsync =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.seed;
      shards = (if smoke then 2 else 4);
      queue_limit = 48;
      tenant_queue_limit = 6;
      round_slots = 6;
      tenant_round_cap = 2;
      jobs;
      batch_fsync;
    }
  in
  Printf.printf
    "\n== %s ==\n%d requests (burst %d), %d tenants (t0 floods), %d shards, \
     seed %d, %d planned kills\n"
    title requests burst tenants (config 1 1).Serve.Daemon.shards seed
    (List.length kills);
  let scenario ?dir ~jobs ~batch_fsync ~kills () =
    run_scenario ~config:(config jobs batch_fsync) ~seed ~tenants ~requests
      ~burst ~kills ?dir ()
  in
  (* Reference storm, no crashes; repeated to pin determinism. *)
  let quiet, t_quiet =
    Harness.wall (fun () -> scenario ~jobs:1 ~batch_fsync:1 ~kills:[] ())
  in
  let quiet2 = scenario ~jobs:1 ~batch_fsync:1 ~kills:[] () in
  (* The gated storm: same stream, kill plan armed; repeated likewise. *)
  let storm, t_storm =
    Harness.wall (fun () -> scenario ~jobs:1 ~batch_fsync:1 ~kills ())
  in
  let storm2 = scenario ~jobs:1 ~batch_fsync:1 ~kills () in
  (* Every gate re-checked across the jobs axis: the parallel executor
     must give byte-identical signatures, with and without crashes. *)
  let quiet_j4 = scenario ~jobs:4 ~batch_fsync:1 ~kills:[] () in
  let storm_j4 = scenario ~jobs:4 ~batch_fsync:1 ~kills () in
  let deterministic =
    quiet.s_sig = quiet2.s_sig && quiet.s_tenant_sigs = quiet2.s_tenant_sigs
  in
  let crash_deterministic =
    storm.s_sig = storm2.s_sig && storm.s_tenant_sigs = storm2.s_tenant_sigs
  in
  let jobs_identical =
    quiet.s_sig = quiet_j4.s_sig
    && quiet.s_tenant_sigs = quiet_j4.s_tenant_sigs
    && storm.s_sig = storm_j4.s_sig
    && storm.s_tenant_sigs = storm_j4.s_tenant_sigs
  in
  let p50 = percentile storm.s_latencies 0.50 in
  let p99 = percentile storm.s_latencies 0.99 in
  let events_per_sec =
    if storm.s_wall > 0.0 then float_of_int storm.s_outcomes /. storm.s_wall
    else 0.0
  in
  let shed_rate =
    float_of_int storm.s_shed /. float_of_int (max 1 storm.s_submitted)
  in
  let accounted =
    storm.s_submitted = storm.s_accepted + storm.s_shed + storm.s_rejected
  in
  Printf.printf
    "storm: %d accepted, %d shed (rate %.2f), %d rejected, %d outcomes (%d \
     applied, %d quarantined tickets)\n"
    storm.s_accepted storm.s_shed shed_rate storm.s_rejected storm.s_outcomes
    storm.s_applied storm.s_quarantined;
  Printf.printf "rungs: %s\n"
    (String.concat ", "
       (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) storm.s_rungs));
  Printf.printf
    "crashes: %d (journal replayed %d events, reissued %d acked tickets)\n"
    storm.s_kills storm.s_replayed storm.s_reissued;
  Printf.printf "throughput: %.0f events/s; cycle latency p50 %sms p99 %sms\n"
    events_per_sec (Harness.ms p50) (Harness.ms p99);
  Printf.printf "walls: quiet %ss storm %ss\n" (Harness.sec t_quiet)
    (Harness.sec t_storm);
  (* ---- scaling: file-backed stores, real fsync barriers ----------
     Deeper rounds than the admission storm (burst 16, 16 slots, 4 per
     tenant) and a uniform tenant draw (no flooder, 4 tenants per shard)
     so every shard's batch is populated: each event costs several
     journal fsyncs inside its shard's batch, and the speedup is exactly
     those fsync waits overlapping across shard domains.  The flooded
     storm concentrates over half the journal work on the flooder's
     shard, which caps sum/max speedup below 2x no matter the executor —
     the bulkhead gates keep covering that shape above; this section
     measures executor scaling. *)
  let jobs_axis = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let scaling_batch = 16 in
  let deep_run ~jobs ~batch_fsync =
    let dir = fresh_tmp_dir () in
    (* Twice the usual shard count: the executor over-subscribes its
       slots (several shard threads per domain), and the more commit
       streams the device sees parked in fsync at once, the more
       records each journal flush absorbs — 8 streams is where this
       host's group-commit batching pays. *)
    let shards = 4 * (config 1 1).Serve.Daemon.shards in
    let tenants = 2 * shards in
    (* round_slots is a per-shard budget and never binds here: each
       shard hosts 2 tenants, and tenant_round_cap = 2 lets it take at
       most 4 tickets a round, far under 2 x tenants.  The cap is what
       balances each shard's batch (4 tickets once the queues are
       primed); the value still sizes queue_limit and the burst. *)
    let round_slots = 2 * tenants in
    let config =
      {
        (config jobs batch_fsync) with
        Serve.Daemon.shards;
        round_slots;
        tenant_round_cap = 2;
        queue_limit = 4 * round_slots;
        tenant_queue_limit = 8;
      }
    in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        (* Flow-heavy, chaos-free mix: a Flow against a connected
           tenant costs the same journal commits as a solve but a
           fraction of the CPU, which is the serving daemon's actual
           steady state — placement churn is rare, traffic is not.
           (It also isolates what this section measures: commit-wait
           overlap, not solver time, scales with jobs.) *)
        let weights =
          { Serve.Loadgen.connect = 2; flow = 12; update = 2; disconnect = 0;
            chaos = 0 }
        in
        run_scenario ~config ~seed ~tenants ~requests ~burst:round_slots
          ~kills:[] ~flood_bias:0 ~weights ~dir ())
  in
  let scale_run jobs = deep_run ~jobs ~batch_fsync:scaling_batch in
  let scaling = List.map (fun j -> (j, scale_run j)) jobs_axis in
  let eps s = if s.s_wall > 0.0 then float_of_int s.s_outcomes /. s.s_wall else 0.0 in
  let base = List.assoc 1 scaling in
  let scaling_rows =
    List.map
      (fun (j, s) ->
        let speedup = if eps base > 0.0 then eps s /. eps base else 0.0 in
        Printf.printf
          "scaling jobs=%d: %.0f events/s (%.2fx), p50 %sms p99 %sms, %.2f \
           intake fsyncs/event%s\n"
          j (eps s) speedup
          (Harness.ms (percentile s.s_latencies 0.50))
          (Harness.ms (percentile s.s_latencies 0.99))
          (fsyncs_per_event s)
          (if s.s_sig = base.s_sig then "" else "  [SIGNATURE MISMATCH]");
        (j, s, speedup))
      scaling
  in
  let scaling_identical =
    List.for_all
      (fun (_, s, _) ->
        s.s_sig = base.s_sig && s.s_tenant_sigs = base.s_tenant_sigs)
      scaling_rows
  in
  let speedup_j4 =
    match List.find_opt (fun (j, _, _) -> j = 4) scaling_rows with
    | Some (_, _, sp) -> sp
    | None -> 0.0
  in
  (* ---- fsync ablation: group commit off vs on -------------------- *)
  let ab1 = deep_run ~jobs:1 ~batch_fsync:1 in
  let ab16 = deep_run ~jobs:1 ~batch_fsync:16 in
  Printf.printf
    "fsync ablation (jobs=1, file stores): batch 1 → %.0f events/s at %.2f \
     fsyncs/event; batch 16 → %.0f events/s at %.2f fsyncs/event\n"
    (eps ab1) (fsyncs_per_event ab1) (eps ab16) (fsyncs_per_event ab16);
  let ablation_identical =
    ab1.s_sig = ab16.s_sig && ab16.s_sig = base.s_sig
  in
  let scale_json (j, s, speedup) =
    Harness.Obj
      [
        ("jobs", Harness.Int j);
        ("events_per_sec", Harness.Float (eps s));
        ("speedup_vs_jobs1", Harness.Float speedup);
        ("p50_ms", Harness.Float (percentile s.s_latencies 0.50 *. 1000.0));
        ("p99_ms", Harness.Float (percentile s.s_latencies 0.99 *. 1000.0));
        ("intake_fsyncs_per_event", Harness.Float (fsyncs_per_event s));
        ("signature_equal", Harness.Bool (s.s_sig = base.s_sig));
      ]
  in
  let ablation_json name s =
    ( name,
      Harness.Obj
        [
          ("events_per_sec", Harness.Float (eps s));
          ("intake_fsyncs_per_event", Harness.Float (fsyncs_per_event s));
          ("intake_fsyncs", Harness.Int s.s_intake_fsyncs);
          ("intake_appends", Harness.Int s.s_intake_appends);
        ] )
  in
  Harness.write_json ~path:"BENCH_serve.json"
    (Harness.Obj
       [
         ("bench", Harness.Str "serve_soak");
         ("seed", Harness.Int seed);
         ("requests", Harness.Int storm.s_submitted);
         ("tenants", Harness.Int tenants);
         ("shards", Harness.Int (config 1 1).Serve.Daemon.shards);
         ("accepted", Harness.Int storm.s_accepted);
         ("shed", Harness.Int storm.s_shed);
         ("shed_rate", Harness.Float shed_rate);
         ("rejected", Harness.Int storm.s_rejected);
         ("applied", Harness.Int storm.s_applied);
         ("quarantined_tickets", Harness.Int storm.s_quarantined);
         ("kills", Harness.Int storm.s_kills);
         ("replayed", Harness.Int storm.s_replayed);
         ("reissued", Harness.Int storm.s_reissued);
         ("lost_acks", Harness.Int (List.length storm.s_lost));
         ( "divergences",
           Harness.List
             (List.map (fun d -> Harness.Str d) storm.s_divergences) );
         ("deterministic", Harness.Bool deterministic);
         ("crash_deterministic", Harness.Bool crash_deterministic);
         ("jobs_identical", Harness.Bool jobs_identical);
         ("all_sheds_typed", Harness.Bool accounted);
         ("events_per_sec", Harness.Float events_per_sec);
         ("p50_ms", Harness.Float (p50 *. 1000.0));
         ("p99_ms", Harness.Float (p99 *. 1000.0));
         ( "rungs",
           Harness.Obj
             (List.map (fun (r, n) -> (r, Harness.Int n)) storm.s_rungs) );
         ( "scaling",
           Harness.Obj
             [
               ("store", Harness.Str "file");
               ("batch_fsync", Harness.Int scaling_batch);
               ("speedup_jobs4", Harness.Float speedup_j4);
               ("signatures_identical", Harness.Bool scaling_identical);
               ("runs", Harness.List (List.map scale_json scaling_rows));
             ] );
         ( "fsync_ablation",
           Harness.Obj
             [
               ("store", Harness.Str "file");
               ("signatures_identical", Harness.Bool ablation_identical);
               ablation_json "batch_1" ab1;
               ablation_json "batch_16" ab16;
             ] );
       ]);
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "serve-soak: %s\n" s;
        failed := true)
      fmt
  in
  if storm.s_kills < List.length kills then
    fail "only %d of %d planned kills fired" storm.s_kills (List.length kills);
  if storm_j4.s_kills < List.length kills then
    fail "only %d of %d planned kills fired at jobs=4" storm_j4.s_kills
      (List.length kills);
  if quiet.s_lost <> [] || storm.s_lost <> [] || storm_j4.s_lost <> [] then
    fail "%d acked events LOST (quiet %d, storm %d, storm-j4 %d)"
      (List.length quiet.s_lost + List.length storm.s_lost
      + List.length storm_j4.s_lost)
      (List.length quiet.s_lost) (List.length storm.s_lost)
      (List.length storm_j4.s_lost);
  if
    quiet.s_divergences <> []
    || storm.s_divergences <> []
    || storm_j4.s_divergences <> []
  then begin
    List.iter (Printf.printf "  divergence: %s\n")
      (quiet.s_divergences @ storm.s_divergences @ storm_j4.s_divergences);
    fail "recovery DIVERGED"
  end;
  if storm.s_shed = 0 then fail "storm produced zero shed (bounds never bit)";
  if not accounted then
    fail "unaccounted submissions: %d <> %d + %d + %d" storm.s_submitted
      storm.s_accepted storm.s_shed storm.s_rejected;
  if not deterministic then
    fail "equal seeds gave different final signatures (no-crash runs)";
  if not crash_deterministic then
    fail "equal seeds gave different final signatures (kill/restart runs)";
  if not jobs_identical then
    fail "jobs=4 diverged from jobs=1 (equal seeds, equal kill plans)";
  if not scaling_identical then
    fail "file-store scaling runs diverged across the jobs axis";
  if not ablation_identical then
    fail "group-commit batching changed the final signatures";
  if fsyncs_per_event ab16 >= fsyncs_per_event ab1 then
    fail "group commit (batch 16) did not reduce intake fsyncs per event \
          (%.2f >= %.2f)"
      (fsyncs_per_event ab16) (fsyncs_per_event ab1);
  (if smoke then begin
     if speedup_j4 <= 1.0 then
       fail "jobs=4 no faster than jobs=1 on file stores (%.2fx)" speedup_j4
   end
   else if speedup_j4 < 2.0 then
     fail "jobs=4 below the 2x scaling gate on file stores (%.2fx)" speedup_j4);
  if !failed then exit 1;
  Printf.printf
    "serve-soak: %d acked events all resolved across %d crashes, shed typed \
     and bounded, signatures reproducible at every jobs; jobs=4 %.2fx on \
     file stores, group commit %.2f → %.2f fsyncs/event\n"
    storm.s_accepted storm.s_kills speedup_j4 (fsyncs_per_event ab1)
    (fsyncs_per_event ab16)
