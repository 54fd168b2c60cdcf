(* The crash-safe persistence layer: WAL framing and checksums, torn-tail
   truncation (unit + seeded fuzz), scriptable storage crash semantics,
   the file-backed store, and the kill-point recovery matrix — a run
   crashed at every point of the write-ahead protocol and recovered must
   end byte-identical (tables + report signatures) to a run that never
   crashed. *)
open Placement
open Runtime
open Journal

let entry tag p =
  {
    Netsim.tags = [ tag ];
    rule =
      Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Permit ~priority:p;
  }

let initial net =
  Solution.empty
    (Instance.make ~net
       ~routing:(Routing.Table.of_paths [])
       ~policies:[]
       ~capacities:(Instance.uniform_capacity net 10))

let config () = Test_runtime.test_config ()

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let test_crc32_vector () =
  (* the IEEE 802.3 check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "sub = string of substring" (Crc32.string "456")
    (Crc32.sub "123456789" ~pos:3 ~len:3)

let test_frame_roundtrip () =
  let p = "hello \x00\xff payload" in
  let f = Wal.frame p in
  Alcotest.(check (option string)) "roundtrip" (Some p) (Wal.unframe f);
  Alcotest.(check (option string)) "trailing garbage rejected" None
    (Wal.unframe (f ^ "x"));
  Alcotest.(check (option string)) "truncation rejected" None
    (Wal.unframe (String.sub f 0 (String.length f - 1)));
  let b = Bytes.of_string f in
  Bytes.set b (Bytes.length b - 1) 'Z';
  Alcotest.(check (option string)) "corruption rejected" None
    (Wal.unframe (Bytes.to_string b))

let sample_records () =
  [
    Wal.Ev_begin
      {
        seq = 1;
        event = Event.Remove { ingresses = [ 0; 2 ] };
        client = Some "churn blob";
        rungs = None;
      };
    Wal.Ev_commit
      {
        seq = 1;
        signature = "sig-1";
        tables = Wal.digest [| [ entry 1 2 ]; [] |];
      };
  ]

let test_scan_roundtrip_and_torn_tail () =
  let records = sample_records () in
  let log = String.concat "" (List.map Wal.encode records) in
  let scanned, consumed = Wal.scan log in
  Alcotest.(check bool) "all records decoded" true (scanned = records);
  Alcotest.(check int) "whole log consumed" (String.length log) consumed;
  (* a torn final record: the valid prefix survives, the tail is cut *)
  let extra =
    Wal.encode (Wal.Ev_commit { seq = 2; signature = "sig-2"; tables = "" })
  in
  let torn = log ^ String.sub extra 0 (String.length extra - 3) in
  let scanned, consumed = Wal.scan torn in
  Alcotest.(check bool) "torn tail dropped" true (scanned = records);
  Alcotest.(check int) "cut at the tear" (String.length log) consumed;
  (* a flipped byte inside record 1: scan keeps record 0 only *)
  let off = String.length (Wal.encode (List.nth records 0)) + 12 in
  let b = Bytes.of_string log in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let scanned, _ = Wal.scan (Bytes.to_string b) in
  Alcotest.(check bool) "corruption cuts mid-log" true
    (scanned = [ List.nth records 0 ]);
  (* pure garbage *)
  let scanned, consumed = Wal.scan "not a journal at all" in
  Alcotest.(check bool) "garbage yields nothing" true (scanned = []);
  Alcotest.(check int) "garbage consumes nothing" 0 consumed

(* Seeded fuzz: random byte flips, truncations and garbage suffixes must
   never make the decoder raise, and whatever it returns must be a
   prefix of the original record sequence cut at the first bad byte. *)
let test_wal_fuzz () =
  let g = Prng.create 0xF00D in
  let random_record seq =
    match Prng.int g 2 with
    | 0 ->
      Wal.Ev_begin
        {
          seq;
          event =
            Event.Remove
              { ingresses = List.init (1 + Prng.int g 3) (fun i -> i) };
          client =
            (if Prng.bool g then
               Some (String.init (Prng.int g 24) (fun _ -> Char.chr (Prng.int g 256)))
             else None);
          rungs =
            (if Prng.bool g then Some [ Runtime.Report.Greedy ] else None);
        }
    | _ ->
      Wal.Ev_commit
        {
          seq;
          signature = String.init (Prng.int g 40) (fun _ -> Char.chr (32 + Prng.int g 90));
          tables = Wal.digest [| [ entry (Prng.int g 9) 2 ]; [] |];
        }
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false
  in
  for trial = 1 to 400 do
    let rec build n acc =
      if n = 0 then List.rev acc else build (n - 1) (random_record (6 - n) :: acc)
    in
    let records = build (1 + Prng.int g 5) [] in
    let log = String.concat "" (List.map Wal.encode records) in
    let mutated =
      match Prng.int g 3 with
      | 0 ->
        let b = Bytes.of_string log in
        let pos = Prng.int g (Bytes.length b) in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Prng.int g 255)));
        Bytes.to_string b
      | 1 -> String.sub log 0 (Prng.int g (String.length log + 1))
      | _ ->
        log ^ String.init (1 + Prng.int g 64) (fun _ -> Char.chr (Prng.int g 256))
    in
    match Wal.scan mutated with
    | scanned, consumed ->
      if consumed < 0 || consumed > String.length mutated then
        Alcotest.failf "trial %d: consumed %d of %d bytes" trial consumed
          (String.length mutated);
      if not (is_prefix scanned records) then
        Alcotest.failf "trial %d: scan returned a non-prefix" trial
    | exception e ->
      Alcotest.failf "trial %d: scan raised %s" trial (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

let test_memory_store_crash_semantics () =
  let store, mem = Store.memory () in
  store.Store.wal_append "aaaa";
  Alcotest.(check string) "unsynced appends invisible" ""
    (store.Store.wal_read ());
  Alcotest.(check int) "pending buffered" 4 (Store.pending_size mem);
  (* power cut mid-write: only a prefix of the pending bytes landed *)
  Store.crash ~keep:2 mem;
  Alcotest.(check string) "partial write survived" "aa" (store.Store.wal_read ());
  Alcotest.(check int) "rest lost" 0 (Store.pending_size mem);
  store.Store.wal_append "bbbb";
  store.Store.wal_sync ();
  Alcotest.(check string) "barrier makes it durable" "aabbbb"
    (store.Store.wal_read ());
  Store.chop mem 3;
  Alcotest.(check string) "short read drops the tail" "aab"
    (store.Store.wal_read ());
  Store.corrupt mem ~pos:0 'z';
  Alcotest.(check string) "media corruption in place" "zab"
    (store.Store.wal_read ());
  store.Store.wal_reset ();
  Alcotest.(check int) "reset truncates" 0 (Store.durable_size mem);
  Alcotest.(check bool) "no snapshot yet" true (store.Store.snap_read () = None);
  store.Store.snap_write "s1";
  store.Store.snap_write "s2";
  Alcotest.(check bool) "snapshot replaced atomically" true
    (store.Store.snap_read () = Some "s2")

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdnplace-journal-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_file_store_roundtrip () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let records = sample_records () in
      let store = Store.file ~dir in
      List.iter (fun r -> store.Store.wal_append (Wal.encode r)) records;
      store.Store.wal_sync ();
      store.Store.snap_write "snap-blob";
      (* re-open, as a recovering process would *)
      let store2 = Store.file ~dir in
      let scanned, _ = Wal.scan (store2.Store.wal_read ()) in
      Alcotest.(check bool) "log survives reopen" true (scanned = records);
      Alcotest.(check bool) "snapshot survives reopen" true
        (store2.Store.snap_read () = Some "snap-blob");
      store2.Store.snap_write "snap-blob-2";
      Alcotest.(check bool) "snapshot replaced" true
        (store2.Store.snap_read () = Some "snap-blob-2");
      store2.Store.wal_reset ();
      Alcotest.(check string) "reset truncates the file" ""
        (store2.Store.wal_read ()))

(* A store whose directory and its parent do not exist yet creates
   both (fsyncing each new entry's directory) and reads back. *)
let test_file_store_fresh_dirs () =
  let top = temp_dir () in
  let dir = Filename.concat (Filename.concat top "shard-0") "journal" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf (Filename.dirname dir);
      rm_rf top)
    (fun () ->
      let records = sample_records () in
      let store = Store.file ~dir in
      List.iter (fun r -> store.Store.wal_append (Wal.encode r)) records;
      store.Store.wal_sync ();
      let reopened = Store.file ~dir in
      let scanned, _ = Wal.scan (reopened.Store.wal_read ()) in
      Alcotest.(check bool) "log reads back after reopen" true
        (scanned = records);
      Alcotest.(check bool) "no snapshot yet" true
        (reopened.Store.snap_read () = None))

(* ------------------------------------------------------------------ *)
(* Journaled engine                                                    *)

let chaos_seed = 3
let chaos_fault () =
  Fault_plan.make ~fail_rate:0.12 ~timeout_rate:0.08 ~seed:chaos_seed ()
let chaos_churn () = Churn.make ~rules:4 ~seed:((chaos_seed * 7) + 1) ()

let live_digest eng = Wal.digest (Switch_api.tables (Engine.switch_api eng))

(* An event is two records whatever its write did: [Ev_begin], then
   [Ev_commit] with the report's signature and the live tables' digest. *)
let check_two_records name j (r : Report.t) records =
  match records with
  | [
   Wal.Ev_begin { seq = 1; client = Some "c1"; _ };
   Wal.Ev_commit { seq = 1; signature; tables };
  ] ->
    Alcotest.(check string) (name ^ ": logged signature matches the report")
      (Report.signature r) signature;
    Alcotest.(check string) (name ^ ": logged digest matches the live tables")
      (live_digest (Journaled.engine j)) tables
  | rs ->
    Alcotest.failf "%s: unexpected stream of %d records" name (List.length rs)

let test_journaled_record_stream () =
  (* A fallback transaction and a rolled-back one log nothing more than
     a wave update: [fail_next] bursts force each. *)
  List.iter
    (fun (name, burst, want) ->
      let fault = Fault_plan.make ~seed:41 () in
      let store, _ = Store.memory () in
      let j =
        Journaled.create ~config:(config ()) ~fault ~store
          (initial (Test_runtime.diamond ()))
      in
      Fault_plan.fail_next fault burst;
      let r = Journaled.handle ~client:"c1" j (Test_runtime.install_event ()) in
      Alcotest.(check string) (name ^ ": write path") want
        (Report.applied_name r.Report.applied);
      check_two_records name j r (fst (Wal.scan (store.Store.wal_read ()))))
    [ ("fallback", 10, "committed-legacy-fallback");
      ("rollback", 1000, "rolled-back:install@0") ];
  let store, mem = Store.memory () in
  let j =
    Journaled.create ~config:(config ())
      ~journal:{ Journaled.snapshot_every = 100 }
      ~store
      (initial (Test_runtime.diamond ()))
  in
  Alcotest.(check int) "boots at seq 0" 0 (Journaled.seq j);
  let r = Journaled.handle ~client:"c1" j (Test_runtime.install_event ()) in
  Alcotest.(check bool) "event verified" true r.Report.verified;
  Alcotest.(check int) "seq advanced" 1 (Journaled.seq j);
  (* A consistent update logs nothing per wave or per operation. *)
  Alcotest.(check bool) "the event ran a wave update" true (r.Report.waves > 1);
  check_two_records "wave update" j r (fst (Wal.scan (store.Store.wal_read ())));
  (* snapshot + compaction empties the log and recovery still lands on
     the same state *)
  Journaled.snapshot_now j;
  Alcotest.(check int) "compacted" 0 (Store.durable_size mem);
  match Journaled.recover ~config:(config ()) ~store () with
  | Error m -> Alcotest.failf "recover after compaction: %s" m
  | Ok rcv ->
    Alcotest.(check int) "recovered seq" 1 (Journaled.seq rcv.Journaled.journaled);
    Alcotest.(check int) "nothing to replay" 0
      (List.length rcv.Journaled.replayed);
    Alcotest.(check bool) "client blob restored" true
      (rcv.Journaled.client = Some "c1");
    Alcotest.(check bool) "tables identical" true
      (Engine.table_snapshot (Journaled.engine rcv.Journaled.journaled)
      = Engine.table_snapshot (Journaled.engine j))

let test_recover_without_snapshot () =
  let store, mem = Store.memory () in
  (match Journaled.recover ~config:(config ()) ~store () with
  | Error "no snapshot" -> ()
  | Error m -> Alcotest.failf "unexpected error: %s" m
  | Ok _ -> Alcotest.fail "recovered from an empty store");
  Store.set_snapshot mem (Some "definitely not a snapshot");
  (match Journaled.recover ~config:(config ()) ~store () with
  | Error "corrupt snapshot" -> ()
  | Error m -> Alcotest.failf "unexpected error: %s" m
  | Ok _ -> Alcotest.fail "recovered from a corrupt snapshot");
  (* A snapshot in the earlier, unversioned-magic format: one frame
     around a bare Marshal of a record led by [snap_version = 1].  Its
     WAL record tags mean something else now, so it must be refused
     before Marshal reads it. *)
  let engine =
    Engine.create ~config:(config ()) (initial (Test_runtime.diamond ()))
  in
  Store.set_snapshot mem
    (Some
       (Wal.frame
          (Marshal.to_string
             ( 1 (* snap_version *),
               0 (* snap_seq *),
               (None : string option),
               Engine.capture engine )
             [])));
  (match Journaled.recover ~config:(config ()) ~store () with
  | Error "unknown snapshot version" -> ()
  | Error m -> Alcotest.failf "unexpected error: %s" m
  | Ok _ -> Alcotest.fail "recovered from an old-format snapshot");
  (* Journals sealed under versions 2 and 3, whose WALs could still hold
     per-wave or transaction records: a record's Marshal tag names
     another constructor now, so the whole journal is refused.  Version
     4 logged the same records, but its snapshot's switch api carried a
     retry config and three more stats fields. *)
  List.iter
    (fun version ->
      Store.set_snapshot mem
        (Some
           (Wal.seal
              ~magic:(Printf.sprintf "sdnplace-journal/%d\n" version)
              ( 0 (* snap_seq *),
                (None : string option),
                Engine.capture engine )));
      match Journaled.recover ~config:(config ()) ~store () with
      | Error "unknown snapshot version" -> ()
      | Error m -> Alcotest.failf "version %d: unexpected error: %s" version m
      | Ok _ -> Alcotest.failf "recovered from a version-%d journal" version)
    [ 2; 3; 4 ]

(* A log whose [Ev_commit] carries a digest the replayed tables do not
   have — rewritten with a valid frame, so the CRC passes — must recover
   with a divergence naming that event, while its signature still
   matches. *)
let test_wrong_tables_digest_diverges () =
  let store, _ = Store.memory () in
  let j =
    Journaled.create ~config:(config ())
      ~journal:{ Journaled.snapshot_every = 100 }
      ~fault:(chaos_fault ()) ~store
      (initial (Test_runtime.diamond ()))
  in
  let churn = chaos_churn () in
  for _ = 1 to 4 do
    let ev = Churn.next churn (Journaled.engine j) in
    ignore (Journaled.handle ~client:(Churn.capture churn) j ev)
  done;
  let records, _ = Wal.scan (store.Store.wal_read ()) in
  let forged =
    List.map
      (function
        | Wal.Ev_commit { seq = 3; signature; _ } ->
          Wal.Ev_commit { seq = 3; signature; tables = Wal.digest [| [] |] }
        | r -> r)
      records
  in
  Alcotest.(check bool) "event 3's commit was rewritten" true (forged <> records);
  store.Store.wal_reset ();
  List.iter (fun r -> store.Store.wal_append (Wal.encode r)) forged;
  store.Store.wal_sync ();
  match Journaled.recover ~config:(config ()) ~store () with
  | Error m -> Alcotest.failf "recover: %s" m
  | Ok rcv ->
    Alcotest.(check int) "nothing dropped" 0 rcv.Journaled.dropped_bytes;
    Alcotest.(check int) "every event replayed" 4
      (List.length rcv.Journaled.replayed);
    Alcotest.(check (option int)) "no interrupted event" None
      rcv.Journaled.interrupted;
    Alcotest.(check (list string)) "one divergence, at event 3"
      [ "event 3: replayed tables differ from the logged digest" ]
      rcv.Journaled.divergences

(* ------------------------------------------------------------------ *)
(* Kill-point matrix                                                   *)

let reference_run n =
  let eng =
    Engine.create ~config:(config ()) ~fault:(chaos_fault ())
      (initial (Test_runtime.diamond ()))
  in
  let churn = chaos_churn () in
  let reports = Churn.drive churn eng n in
  (List.map Report.signature reports, Engine.table_snapshot eng,
   Engine.quarantined eng)

(* Drive a journaled run to [n] events, crashing once at [kp] around
   event [crash_at] and recovering; returns what the recovered run
   produced plus how many times it actually crashed. *)
let crashed_run ~kp ~crash_at n =
  let store, _ = Store.memory () in
  let armed = ref false and fired = ref 0 and countdown = ref 0 in
  let kill p =
    if !armed && p = kp then begin
      (* Mid_apply fires per operation; a countdown lands the crash
         past the first one. *)
      let fire =
        match p with
        | Journaled.Mid_apply ->
          decr countdown;
          !countdown <= 0
        | _ -> true
      in
      if fire then begin
        armed := false;
        incr fired;
        raise (Journaled.Killed (Journaled.kill_point_name p))
      end
    end
  in
  let journal = { Journaled.snapshot_every = 4 } in
  let j =
    ref
      (Journaled.create ~config:(config ()) ~journal ~fault:(chaos_fault ())
         ~kill ~store
         (initial (Test_runtime.diamond ())))
  in
  let churn = ref (chaos_churn ()) in
  let by_seq = Hashtbl.create n in
  let guard = ref 0 in
  while Journaled.seq !j < n do
    incr guard;
    if !guard > n * 20 then Alcotest.fail "kill-point run stalled";
    if (not !armed) && !fired = 0 && Journaled.seq !j + 1 >= crash_at then begin
      armed := true;
      countdown := 2
    end;
    let ev = Churn.next !churn (Journaled.engine !j) in
    let client = Churn.capture !churn in
    match Journaled.handle ~client !j ev with
    | r -> Hashtbl.replace by_seq (Journaled.seq !j) r
    | exception Journaled.Killed _ -> (
      match Journaled.recover ~config:(config ()) ~journal ~kill ~store () with
      | Error msg -> Alcotest.failf "recovery failed: %s" msg
      | Ok rcv ->
        Alcotest.(check (list string)) "recovery divergence-free" []
          rcv.Journaled.divergences;
        List.iter
          (fun (s, r) -> Hashtbl.replace by_seq s r)
          rcv.Journaled.replayed;
        j := rcv.Journaled.journaled;
        churn :=
          (match rcv.Journaled.client with
          | Some blob -> Churn.restore blob
          | None -> chaos_churn ()))
  done;
  let sigs =
    List.init n (fun i ->
        match Hashtbl.find_opt by_seq (i + 1) with
        | Some r -> Report.signature r
        | None -> "<missing>")
  in
  ( sigs,
    Engine.table_snapshot (Journaled.engine !j),
    Engine.quarantined (Journaled.engine !j),
    !fired )

let test_kill_point_matrix () =
  let n = 10 in
  let ref_sigs, ref_tables, ref_q = reference_run n in
  List.iter
    (fun kp ->
      List.iter
        (fun crash_at ->
          let name =
            Printf.sprintf "%s@%d" (Journaled.kill_point_name kp) crash_at
          in
          let sigs, tables, q, fired = crashed_run ~kp ~crash_at n in
          Alcotest.(check int) (name ^ ": crashed exactly once") 1 fired;
          Alcotest.(check (list string)) (name ^ ": report signatures") ref_sigs
            sigs;
          Alcotest.(check bool) (name ^ ": tables byte-identical") true
            (tables = ref_tables);
          Alcotest.(check (list int)) (name ^ ": quarantine set") ref_q q)
        [ 1; 5; 10 ])
    Journaled.all_kill_points

(* A crash between two operations of a consistent update — wherever it
   lands, past wave 0's commit included — leaves nothing of the event in
   the log but its Ev_begin.  Recovery must re-run the event from the
   snapshot's tables, the update from wave 0, landing byte-identical to
   an uncrashed run of the same event. *)
let test_mid_wave_crash_reruns () =
  let ref_eng =
    Engine.create ~config:(config ()) (initial (Test_runtime.diamond ()))
  in
  let ref_r = Engine.handle ref_eng (Test_runtime.install_event ()) in
  Alcotest.(check bool) "the update runs more than one wave" true
    (ref_r.Report.waves > 1);
  (* [crash_at] = 0 counts the update's operations without crashing *)
  let run crash_at =
    let store, _ = Store.memory () in
    let ops = ref 0 in
    let kill = function
      | Journaled.Mid_apply ->
        incr ops;
        if !ops = crash_at then raise (Journaled.Killed "mid-apply")
      | _ -> ()
    in
    let j =
      Journaled.create ~config:(config ())
        ~journal:{ Journaled.snapshot_every = 100 }
        ~kill ~store
        (initial (Test_runtime.diamond ()))
    in
    match Journaled.handle j (Test_runtime.install_event ()) with
    | _ -> (!ops, None)
    | exception Journaled.Killed _ -> (!ops, Some store)
  in
  let total, _ = run 0 in
  (* the last operation belongs to the last wave, so crashing at it and
     at every earlier one covers a crash after wave 0 committed *)
  for crash_at = 1 to total do
    let name = Printf.sprintf "mid-apply@op %d/%d" crash_at total in
    match run crash_at with
    | _, None -> Alcotest.failf "%s: run did not crash" name
    | _, Some store -> (
      match Journaled.recover ~config:(config ()) ~store () with
      | Error msg -> Alcotest.failf "%s: recovery failed: %s" name msg
      | Ok rcv ->
        Alcotest.(check (option int)) (name ^ ": interrupted event")
          (Some 1) rcv.Journaled.interrupted;
        Alcotest.(check (list string)) (name ^ ": divergence-free") []
          rcv.Journaled.divergences;
        (match rcv.Journaled.replayed with
        | [ (1, r) ] ->
          Alcotest.(check string) (name ^ ": signature matches uncrashed")
            (Report.signature ref_r) (Report.signature r);
          Alcotest.(check int) (name ^ ": wave count matches uncrashed")
            ref_r.Report.waves r.Report.waves
        | _ -> Alcotest.failf "%s: expected exactly event 1 replayed" name);
        Alcotest.(check bool) (name ^ ": tables byte-identical") true
          (Engine.table_snapshot (Journaled.engine rcv.Journaled.journaled)
          = Engine.table_snapshot ref_eng))
  done

(* A switch failure that strands a tenant attached to the dead switch
   fences it there through the controller's forced write, before the
   event's table operations.  A crash later in the event must still
   recover without a divergence. *)
let test_dead_switch_fence_recovers () =
  let events =
    [ Test_runtime.install_event ~switches:[ 0; 1; 2 ] ();
      Event.Switch_fail { switch = 0 } ]
  in
  let ref_eng =
    Engine.create ~config:(config ()) (initial (Test_runtime.chain ()))
  in
  let ref_sigs =
    List.map (fun e -> Report.signature (Engine.handle ref_eng e)) events
  in
  Alcotest.(check (list int)) "the stranded tenant is fenced" [ 0 ]
    (Engine.quarantined ref_eng);
  List.iter
    (fun kp ->
      let name = Journaled.kill_point_name kp in
      let store, _ = Store.memory () in
      let armed = ref false in
      let kill p = if !armed && p = kp then raise (Journaled.Killed name) in
      let j =
        Journaled.create ~config:(config ()) ~kill ~store
          (initial (Test_runtime.chain ()))
      in
      ignore (Journaled.handle j (List.hd events));
      armed := true;
      (match Journaled.handle j (List.nth events 1) with
      | _ -> Alcotest.failf "%s: run did not crash" name
      | exception Journaled.Killed _ -> ());
      match Journaled.recover ~config:(config ()) ~store () with
      | Error msg -> Alcotest.failf "%s: recovery failed: %s" name msg
      | Ok rcv ->
        Alcotest.(check (list string)) (name ^ ": divergence-free") []
          rcv.Journaled.divergences;
        Alcotest.(check (list string)) (name ^ ": signatures") ref_sigs
          (List.map (fun (_, r) -> Report.signature r) rcv.Journaled.replayed);
        Alcotest.(check bool) (name ^ ": tables byte-identical") true
          (Engine.table_snapshot (Journaled.engine rcv.Journaled.journaled)
          = Engine.table_snapshot ref_eng))
    [ Journaled.Mid_apply; Journaled.Before_commit ]

(* Corrupt tail at the journal level: run, flip a byte near the end of
   the durable log, recover (must not fail), keep driving, and still
   converge on the uncrashed reference. *)
let test_corrupt_tail_recovery_converges () =
  let n = 8 in
  let ref_sigs, ref_tables, ref_q = reference_run n in
  let store, mem = Store.memory () in
  let journal = { Journaled.snapshot_every = 100 } in
  let j =
    ref
      (Journaled.create ~config:(config ()) ~journal ~fault:(chaos_fault ())
         ~store
         (initial (Test_runtime.diamond ())))
  in
  let churn = ref (chaos_churn ()) in
  let by_seq = Hashtbl.create n in
  let drive_to target =
    while Journaled.seq !j < target do
      let ev = Churn.next !churn (Journaled.engine !j) in
      let client = Churn.capture !churn in
      let r = Journaled.handle ~client !j ev in
      Hashtbl.replace by_seq (Journaled.seq !j) r
    done
  in
  drive_to (n - 2);
  Store.corrupt mem ~pos:(Store.durable_size mem - 5) '?';
  (match Journaled.recover ~config:(config ()) ~journal ~store () with
  | Error msg -> Alcotest.failf "corrupt tail killed recovery: %s" msg
  | Ok rcv ->
    Alcotest.(check bool) "torn bytes were dropped" true
      (rcv.Journaled.dropped_bytes > 0);
    Alcotest.(check (list string)) "no divergence" [] rcv.Journaled.divergences;
    List.iter (fun (s, r) -> Hashtbl.replace by_seq s r) rcv.Journaled.replayed;
    j := rcv.Journaled.journaled;
    churn :=
      (match rcv.Journaled.client with
      | Some blob -> Churn.restore blob
      | None -> chaos_churn ()));
  drive_to n;
  let sigs =
    List.init n (fun i ->
        match Hashtbl.find_opt by_seq (i + 1) with
        | Some r -> Report.signature r
        | None -> "<missing>")
  in
  Alcotest.(check (list string)) "signatures converge" ref_sigs sigs;
  Alcotest.(check bool) "tables converge" true
    (Engine.table_snapshot (Journaled.engine !j) = ref_tables);
  Alcotest.(check (list int)) "quarantine converges" ref_q
    (Engine.quarantined (Journaled.engine !j))

(* Recovery is idempotent: a second recover finds the compacted store
   and replays nothing. *)
let test_recovery_idempotent () =
  let store, _ = Store.memory () in
  let j =
    Journaled.create ~config:(config ())
      ~journal:{ Journaled.snapshot_every = 100 }
      ~fault:(chaos_fault ()) ~store
      (initial (Test_runtime.diamond ()))
  in
  let churn = chaos_churn () in
  for _ = 1 to 5 do
    let ev = Churn.next churn (Journaled.engine j) in
    ignore (Journaled.handle ~client:(Churn.capture churn) j ev)
  done;
  match Journaled.recover ~config:(config ()) ~store () with
  | Error m -> Alcotest.failf "first recover: %s" m
  | Ok r1 -> (
    Alcotest.(check int) "first recover replays the log" 5
      (List.length r1.Journaled.replayed);
    match Journaled.recover ~config:(config ()) ~store () with
    | Error m -> Alcotest.failf "second recover: %s" m
    | Ok r2 ->
      Alcotest.(check int) "second recover replays nothing" 0
        (List.length r2.Journaled.replayed);
      Alcotest.(check int) "same seq" (Journaled.seq r1.Journaled.journaled)
        (Journaled.seq r2.Journaled.journaled);
      Alcotest.(check bool) "same tables" true
        (Engine.table_snapshot (Journaled.engine r1.Journaled.journaled)
        = Engine.table_snapshot (Journaled.engine r2.Journaled.journaled)))

(* End-to-end through the file store: journal to disk, "crash", recover
   from a fresh store handle, continue, and match the uncrashed run. *)
let test_file_backed_journal_resumes () =
  let n = 6 in
  let ref_sigs, ref_tables, _ = reference_run n in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Store.file ~dir in
      let j =
        Journaled.create ~config:(config ())
          ~journal:{ Journaled.snapshot_every = 3 }
          ~fault:(chaos_fault ()) ~store
          (initial (Test_runtime.diamond ()))
      in
      let churn = chaos_churn () in
      let by_seq = Hashtbl.create n in
      for _ = 1 to n - 2 do
        let ev = Churn.next churn (Journaled.engine j) in
        let r = Journaled.handle ~client:(Churn.capture churn) j ev in
        Hashtbl.replace by_seq (Journaled.seq j) r
      done;
      (* the process dies here; a new one opens the same directory *)
      let store2 = Store.file ~dir in
      match Journaled.recover ~config:(config ()) ~store:store2 () with
      | Error m -> Alcotest.failf "file-backed recover: %s" m
      | Ok rcv ->
        List.iter
          (fun (s, r) -> Hashtbl.replace by_seq s r)
          rcv.Journaled.replayed;
        let j2 = rcv.Journaled.journaled in
        let churn2 =
          match rcv.Journaled.client with
          | Some blob -> Churn.restore blob
          | None -> chaos_churn ()
        in
        while Journaled.seq j2 < n do
          let ev = Churn.next churn2 (Journaled.engine j2) in
          let r = Journaled.handle ~client:(Churn.capture churn2) j2 ev in
          Hashtbl.replace by_seq (Journaled.seq j2) r
        done;
        let sigs =
          List.init n (fun i ->
              match Hashtbl.find_opt by_seq (i + 1) with
              | Some r -> Report.signature r
              | None -> "<missing>")
        in
        Alcotest.(check (list string)) "signatures match reference" ref_sigs
          sigs;
        Alcotest.(check bool) "tables match reference" true
          (Engine.table_snapshot (Journaled.engine j2) = ref_tables))

let suite =
  [
    Alcotest.test_case "crc32 matches the IEEE check value" `Quick
      test_crc32_vector;
    Alcotest.test_case "frame/unframe round-trips and rejects damage" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "scan decodes all, truncates torn tails" `Quick
      test_scan_roundtrip_and_torn_tail;
    Alcotest.test_case "fuzz: mutated logs never crash the decoder" `Quick
      test_wal_fuzz;
    Alcotest.test_case "memory store scripts crashes faithfully" `Quick
      test_memory_store_crash_semantics;
    Alcotest.test_case "file store survives reopen" `Quick
      test_file_store_roundtrip;
    Alcotest.test_case "file store creates a fresh two-level directory"
      `Quick test_file_store_fresh_dirs;
    Alcotest.test_case "journaled engine writes the WAL protocol" `Quick
      test_journaled_record_stream;
    Alcotest.test_case "recovery refuses missing/corrupt snapshots" `Quick
      test_recover_without_snapshot;
    Alcotest.test_case "a wrong tables digest on Ev_commit is a divergence"
      `Quick test_wrong_tables_digest_diverges;
    Alcotest.test_case "kill-point matrix recovers byte-identical" `Slow
      test_kill_point_matrix;
    Alcotest.test_case "mid-wave crash re-runs the update from wave 0"
      `Quick test_mid_wave_crash_reruns;
    Alcotest.test_case "a dead-switch fence recovers without divergence"
      `Quick test_dead_switch_fence_recovers;
    Alcotest.test_case "corrupt journal tail truncates and converges" `Quick
      test_corrupt_tail_recovery_converges;
    Alcotest.test_case "recovery is idempotent" `Quick test_recovery_idempotent;
    Alcotest.test_case "file-backed journal resumes across processes" `Quick
      test_file_backed_journal_resumes;
  ]
