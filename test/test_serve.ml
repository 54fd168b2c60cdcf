(* The serving layer: the framed wire codec (torn and corrupt streams
   included), typed admission bounds, per-shard round budgets, the
   per-tenant circuit breaker state machine, graceful drain over a
   framed session, and — the load-bearing property — admission never
   loses an acked event: across random request streams, overload and
   random kill/restart points, every Accepted ticket is eventually
   applied or deterministically quarantined, and equal seeds give
   byte-identical final tenant signatures. *)

module Wire = Serve.Wire
module Shard = Serve.Shard
module Daemon = Serve.Daemon

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- wire codec ----------------------------------------- *)

let sample_requests =
  [
    Wire.Submit { tenant = 0; op = Wire.Connect { rules = 3 } };
    Wire.Submit { tenant = 7; op = Wire.Flow };
    Wire.Submit { tenant = 2; op = Wire.Update { rules = 5 } };
    Wire.Submit { tenant = 0; op = Wire.Disconnect };
    Wire.Submit { tenant = 1; op = Wire.Chaos Wire.Kill_switch };
    Wire.Submit { tenant = 1; op = Wire.Chaos Wire.Cut_link };
    Wire.Submit { tenant = 3; op = Wire.Chaos Wire.Shrink_capacity };
    Wire.Metrics_dump;
    Wire.Traffic_tick
      { seed = 5; epoch = 2; packets = 512; alpha = 1.1; drift = 0.25; probes = 2 };
    Wire.Stats;
    Wire.Drain;
  ]

let sample_replies =
  [
    Wire.Accepted { tenant = 4; ticket = 17 };
    Wire.Rejected_overload
      { tenant = 0; scope = Wire.Global; queued = 64; limit = 64 };
    Wire.Rejected_overload
      { tenant = 5; scope = Wire.Tenant; queued = 8; limit = 8 };
    Wire.Rejected { reason = "draining" };
    Wire.Applied
      {
        tenant = 4;
        ticket = 17;
        rung = Runtime.Report.Incremental;
        verified = true;
        quarantined = false;
      };
    Wire.Quarantined_ticket { tenant = 2; ticket = 9; reason = "no route" };
    Wire.Drained { processed = 41 };
    Wire.Metrics_text { text = "# TYPE x_total counter\nx_total 3\n" };
    Wire.Traffic_report { epoch = 2; flows = 9; delivered = 480; dropped = 32 };
    Wire.Stats_reply
      {
        tenants = 3;
        accepted = 10;
        applied = 7;
        quarantined = 2;
        shed = 1;
        pending = 1;
      };
  ]

let test_wire_roundtrip () =
  let stream = String.concat "" (List.map Wire.encode_request sample_requests) in
  let decoded, consumed = Wire.decode_requests stream in
  Alcotest.(check int) "whole stream consumed" (String.length stream) consumed;
  Alcotest.(check bool) "requests roundtrip" true (decoded = sample_requests);
  let rstream = String.concat "" (List.map Wire.encode_reply sample_replies) in
  let rdecoded, rconsumed = Wire.decode_replies rstream in
  Alcotest.(check int) "reply stream consumed" (String.length rstream) rconsumed;
  Alcotest.(check bool) "replies roundtrip" true (rdecoded = sample_replies)

let test_wire_torn_and_corrupt () =
  let stream = String.concat "" (List.map Wire.encode_request sample_requests) in
  (* A torn tail loses exactly the last message, never an earlier one. *)
  let torn = String.sub stream 0 (String.length stream - 3) in
  let decoded, consumed = Wire.decode_requests torn in
  Alcotest.(check int) "all but the torn message" (List.length sample_requests - 1)
    (List.length decoded);
  Alcotest.(check bool) "prefix equals originals" true
    (decoded
    = List.filteri (fun i _ -> i < List.length sample_requests - 1)
        sample_requests);
  Alcotest.(check bool) "consumed stops before the torn frame" true
    (consumed < String.length torn);
  (* A flipped payload byte fails the frame CRC: decoding stops there. *)
  let corrupt = Bytes.of_string stream in
  let first_len = String.length (Wire.encode_request (List.hd sample_requests)) in
  Bytes.set corrupt (first_len + 12)
    (Char.chr (Char.code (Bytes.get corrupt (first_len + 12)) lxor 0xFF));
  let decoded, _ = Wire.decode_requests (Bytes.to_string corrupt) in
  Alcotest.(check int) "CRC stops the scan at the flipped frame" 1
    (List.length decoded)

(* Feed [stream] to the live reader [chunk k] bytes at a time, as reads
   would deliver it; stop at the first [Bad].  Returns every frame taken
   and the last stop. *)
let live_read ~chunk stream =
  let buf = Buffer.create 64 in
  let rec go off k acc =
    if off >= String.length stream then (List.rev acc, Journal.Wal.Short)
    else
      let n = min (chunk k) (String.length stream - off) in
      Buffer.add_substring buf stream off n;
      let reqs, stop = Wire.take_requests buf in
      let acc = List.rev_append reqs acc in
      if stop = Journal.Wal.Bad then (List.rev acc, stop)
      else go (off + n) (k + 1) acc
  in
  let reqs, stop = go 0 0 [] in
  (reqs, stop, Buffer.length buf)

let test_wire_live_reader () =
  let stream =
    String.concat "" (List.map Wire.encode_request sample_requests)
    (* plus a torn header at the tail *)
    ^ "\000\000"
  in
  let reqs, stop, left = live_read ~chunk:(fun _ -> 7) stream in
  Alcotest.(check bool) "every frame decodes to its request" true
    (reqs = List.map Option.some sample_requests);
  Alcotest.(check bool) "a torn tail waits for more bytes" true
    (stop = Journal.Wal.Short);
  Alcotest.(check int) "the torn tail stays buffered" 2 left

(* The live reader and the whole-stream decoder walk the same frames
   under the same cap: over any chunking of a truncated, byte-flipped or
   over-cap stream they give the same request prefix, and an over-cap
   header is cut by the one and tears the other. *)
let qcheck_one_reader =
  let gen =
    QCheck.Gen.(
      let* picks = list_size (1 -- 8) (int_bound (List.length sample_requests - 1)) in
      let* damage = int_bound 2 in
      let* at = nat in
      let* chunks = list_size (1 -- 6) (1 -- 40) in
      return (picks, damage, at, chunks))
  in
  QCheck.Test.make ~count:300 ~name:"live reader and decode_requests agree"
    (QCheck.make gen)
    (fun (picks, damage, at, chunks) ->
      let frames =
        List.map (fun i -> Wire.encode_request (List.nth sample_requests i)) picks
      in
      let whole = String.concat "" frames in
      let n = String.length whole in
      let stream =
        match damage with
        | 0 -> String.sub whole 0 (at mod (n + 1))
        | 1 ->
          let b = Bytes.of_string whole in
          let i = at mod n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
          Bytes.to_string b
        | _ ->
          let header = Bytes.make 8 '\000' in
          Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_frame_len + 1));
          whole ^ Bytes.to_string header ^ String.make 32 'x'
      in
      let decoded, consumed = Wire.decode_requests stream in
      let chunk k = List.nth chunks (k mod List.length chunks) in
      let live, stop, _ = live_read ~chunk stream in
      let rec prefix = function Some r :: rest -> r :: prefix rest | _ -> [] in
      if prefix live <> decoded then
        QCheck.Test.fail_reportf "decoded %d requests, live reader %d"
          (List.length decoded) (List.length (prefix live));
      if damage = 2 && (consumed > n || stop <> Journal.Wal.Bad) then
        QCheck.Test.fail_reportf "over-cap header not cut and torn";
      true)

(* ---------------- typed admission bounds ----------------------------- *)

let mem_stores shards =
  let backing =
    Array.init shards (fun _ ->
        let journal, jmem = Journal.Store.memory () in
        let intake, imem = Journal.Store.memory () in
        ({ Shard.journal; intake }, jmem, imem))
  in
  let stores i =
    let s, _, _ = backing.(i) in
    s
  in
  let crash () =
    Array.iter
      (fun (_, jmem, imem) ->
        Journal.Store.crash jmem;
        Journal.Store.crash imem)
      backing
  in
  (stores, crash)

let start_ok ?config ?kill ~stores () =
  match Daemon.start ?config ?kill ~stores () with
  | Ok s -> s
  | Error { Daemon.shard; reason } ->
    Alcotest.failf "start refused shard %d: %s" shard reason

let small_config =
  {
    Daemon.default_config with
    Daemon.shards = 1;
    queue_limit = 4;
    tenant_queue_limit = 2;
    round_slots = 4;
    tenant_round_cap = 2;
  }

(* Zero shards once died in the first [Submit] with Division_by_zero, and
   zero sessions blocked forever in [select]: both are rejected up front,
   before a store or the socket is used. *)
let test_rejects_empty_sizes () =
  let touched = ref false in
  let stores i =
    touched := true;
    fst (mem_stores 1) i
  in
  List.iter
    (fun (config, msg) ->
      let exn = Invalid_argument ("Serve.Daemon: " ^ msg) in
      Alcotest.check_raises ("create: " ^ msg) exn (fun () ->
          ignore (Daemon.create ~config ~stores ()));
      Alcotest.check_raises ("start: " ^ msg) exn (fun () ->
          ignore (Daemon.start ~config ~stores ())))
    [
      ({ small_config with Daemon.shards = 0 }, "shards must be >= 1");
      ({ small_config with Daemon.jobs = 0 }, "jobs must be >= 1");
    ];
  Alcotest.(check bool) "no store touched" false !touched;
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listen;
      Daemon.shutdown d)
    (fun () ->
      Alcotest.check_raises "serve_sessions: max_sessions 0"
        (Invalid_argument
           "Serve.Daemon.serve_sessions: max_sessions must be >= 1")
        (fun () -> ignore (Daemon.serve_sessions d ~listen ~max_sessions:0 ())))

let test_admission_bounds_typed () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let submit tenant =
    match Daemon.submit d (Wire.Submit { tenant; op = Wire.Connect { rules = 2 } }) with
    | [ reply ] -> reply
    | rs -> Alcotest.failf "expected one admission reply, got %d" (List.length rs)
  in
  (match submit 0 with
  | Wire.Accepted { tenant = 0; ticket = 1 } -> ()
  | _ -> Alcotest.fail "wanted the first ticket accepted");
  ignore (submit 0);
  (match submit 0 with
  | Wire.Rejected_overload { tenant = 0; scope = Wire.Tenant; queued = 2; limit = 2 }
    -> ()
  | _ -> Alcotest.fail "wanted a typed tenant overload");
  ignore (submit 1);
  ignore (submit 1);
  (match submit 2 with
  | Wire.Rejected_overload { scope = Wire.Global; queued = 4; limit = 4; _ } -> ()
  | _ -> Alcotest.fail "wanted a typed global overload");
  Alcotest.(check int) "both sheds counted" 2 (Daemon.shed d);
  (match Daemon.submit d (Wire.Submit { tenant = -1; op = Wire.Flow }) with
  | [ Wire.Rejected _ ] -> ()
  | _ -> Alcotest.fail "negative tenant not rejected");
  (* Every acked event still lands: drain resolves all four tickets. *)
  let outcomes = Daemon.drain d in
  Alcotest.(check int) "outcomes for the four acked + Drained" 5
    (List.length outcomes);
  Alcotest.(check bool) "nothing pending" true (Daemon.pending d = 0);
  List.iter
    (fun (tenant, ticket) ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d ticket %d resolved" tenant ticket)
        true
        (Daemon.resolved d ~tenant ~ticket))
    [ (0, 1); (0, 2); (1, 3); (1, 4) ];
  match Daemon.submit d (Wire.Submit { tenant = 5; op = Wire.Flow }) with
  | [ Wire.Rejected { reason = "draining" } ] -> ()
  | _ -> Alcotest.fail "submit after drain not refused"

(* ---------------- metrics and traffic wire ops ----------------------- *)

let test_metrics_and_traffic_ops () =
  let build () =
    let stores, _ = mem_stores 1 in
    let d = Daemon.create ~config:small_config ~stores () in
    List.iter
      (fun tenant ->
        match
          Daemon.submit d
            (Wire.Submit { tenant; op = Wire.Connect { rules = 2 } })
        with
        | [ Wire.Accepted _ ] -> ()
        | rs -> Alcotest.failf "connect not acked: %d replies" (List.length rs))
      [ 0; 1 ];
    ignore (Daemon.tick d);
    d
  in
  let d = build () in
  (match Daemon.submit d Wire.Metrics_dump with
  | [ Wire.Metrics_text { text } ] ->
    (match Telemetry.Metrics.check_exposition text with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "exposition rejected: %s" e);
    let contains needle =
      let n = String.length needle and h = String.length text in
      let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "accepted counter exposed" true
      (contains "sdnplace_serve_accepted_total")
  | rs -> Alcotest.failf "expected one metrics reply, got %d" (List.length rs));
  let tick =
    Wire.Traffic_tick
      { seed = 11; epoch = 1; packets = 256; alpha = 1.1; drift = 0.25;
        probes = 2 }
  in
  let report d =
    match Daemon.submit d tick with
    | [ (Wire.Traffic_report { epoch; flows; delivered; dropped } as r) ] ->
      Alcotest.(check int) "epoch echoed" 1 epoch;
      Alcotest.(check bool) "flows after connects" true (flows > 0);
      Alcotest.(check bool) "all packet weight accounted" true
        (delivered + dropped = 256);
      (* both tenants' policies hold drop rules, and the probes aim at
         them *)
      Alcotest.(check bool) "probes hit the drop rules" true (dropped > 0);
      r
    | rs -> Alcotest.failf "expected one traffic reply, got %d" (List.length rs)
  in
  let r1 = report d in
  Alcotest.(check bool) "tick is stateless on one daemon" true (report d = r1);
  let d2 = build () in
  Alcotest.(check bool) "equal daemons answer ticks identically" true
    (report d2 = r1)

(* A NaN or infinite Zipf parameter is refused, naming the field,
   instead of walking an epoch with it. *)
let test_traffic_tick_rejects_non_finite () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  List.iter
    (fun (field, alpha, drift) ->
      List.iter
        (fun v ->
          let tick =
            Wire.Traffic_tick
              { seed = 1; epoch = 0; packets = 1000; alpha = alpha v;
                drift = drift v; probes = 1 }
          in
          match Daemon.submit d tick with
          | [ Wire.Rejected { reason } ] ->
            Alcotest.(check string) "reason names the field"
              ("non-finite " ^ field) reason
          | _ -> Alcotest.failf "a non-finite %s was not rejected" field)
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    [ ("alpha", Fun.id, Fun.const 0.25); ("drift", Fun.const 1.1, Fun.id) ];
  Daemon.shutdown d

(* ---------------- breaker state machine ------------------------------ *)

let report ~rung ~verified =
  {
    Runtime.Report.event = "test";
    rung;
    solve_status = "-";
    applied = Runtime.Report.Committed;
    newly_quarantined = [];
    quarantined = [];
    verified;
    entries = 0;
    attempts = 0;
    failures = 0;
    timeouts = 0;
    retries = 0;
    forced_resyncs = 0;
    waves = 0;
    wall_s = 0.0;
  }

let test_breaker_machine () =
  let step = Shard.breaker_step in
  let ok = report ~rung:Runtime.Report.Incremental ~verified:true in
  let greedy = report ~rung:Runtime.Report.Greedy ~verified:true in
  let quarantine = report ~rung:Runtime.Report.Quarantine ~verified:true in
  let unverified = report ~rung:Runtime.Report.Noop ~verified:false in
  let closed = Shard.Closed { strikes = 0 } in
  Alcotest.(check bool) "closed carries no restriction" true
    (Shard.restriction closed = None);
  (* strikes, then trip on the third *)
  let b1 = step closed greedy in
  Alcotest.(check bool) "one strike" true (b1 = Shard.Closed { strikes = 1 });
  Alcotest.(check bool) "clean outcome clears strikes" true
    (step b1 ok = closed);
  Alcotest.(check bool) "failed verification strikes too" true
    (step closed unverified = Shard.Closed { strikes = 1 });
  let b2 = step b1 quarantine in
  Alcotest.(check bool) "second strike stays closed" true
    (b2 = Shard.Closed { strikes = 2 });
  let tripped = step b2 greedy in
  Alcotest.(check bool) "third strike trips" true
    (tripped = Shard.Open { cooldown_left = 4 });
  Alcotest.(check bool) "open pins to greedy" true
    (Shard.restriction tripped = Some [ Runtime.Report.Greedy ]);
  (* under restriction greedy is the expected rung: it counts the
     cooldown down; only the floor resets it *)
  let cooling = step tripped greedy in
  Alcotest.(check bool) "cooldown counts down" true
    (cooling = Shard.Open { cooldown_left = 3 });
  Alcotest.(check bool) "quarantine resets the cooldown" true
    (step cooling quarantine = Shard.Open { cooldown_left = 4 });
  Alcotest.(check bool) "failed verification resets the cooldown" true
    (step cooling unverified = Shard.Open { cooldown_left = 4 });
  let last = step (step cooling greedy) ok in
  Alcotest.(check bool) "clean outcomes count down too" true
    (last = Shard.Open { cooldown_left = 1 });
  let half = step last greedy in
  Alcotest.(check bool) "cooldown expiry half-opens" true (half = Shard.Half_open);
  Alcotest.(check bool) "half-open probes unrestricted" true
    (Shard.restriction half = None);
  Alcotest.(check bool) "escalation re-opens" true
    (step half greedy = Shard.Open { cooldown_left = 4 });
  Alcotest.(check bool) "clean probe closes" true (step half ok = closed)

(* ---------------- framed session: drain semantics -------------------- *)

(* Everything a session's peer reads until the loop closes or drops
   its end. *)
let read_to_eof fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

(* Run the session loop over one session that exists from the start:
   the framed messages are written to its input and its input closed,
   then everything written back is decoded.  [`Pipe] shapes the session
   like stdio (an input and an output fd); [`Socketpair] like an
   accepted socket (one fd both ways). *)
let run_session ?(over = `Pipe) d frames =
  let script = String.concat "" frames in
  let write_all fd =
    ignore (Unix.write_substring fd script 0 (String.length script))
  in
  let served, bytes =
    match over with
    | `Pipe ->
      let in_r, in_w = Unix.pipe () in
      let out_r, out_w = Unix.pipe () in
      write_all in_w;
      Unix.close in_w;
      let served = Daemon.serve_sessions d ~session:(in_r, out_w) () in
      Unix.close in_r;
      Unix.close out_w;
      let bytes = read_to_eof out_r in
      Unix.close out_r;
      (served, bytes)
    | `Socketpair ->
      let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      write_all theirs;
      Unix.shutdown theirs Unix.SHUTDOWN_SEND;
      let served = Daemon.serve_sessions d ~session:(mine, mine) () in
      Unix.close mine;
      let bytes = read_to_eof theirs in
      Unix.close theirs;
      (served, bytes)
  in
  let replies, consumed = Wire.decode_replies bytes in
  Alcotest.(check int) "every reply byte framed" (String.length bytes) consumed;
  (served, replies)

let test_session_drains () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let requests =
    [
      Wire.Submit { tenant = 0; op = Wire.Connect { rules = 2 } };
      Wire.Submit { tenant = 1; op = Wire.Connect { rules = 2 } };
      Wire.Submit { tenant = 0; op = Wire.Flow };
      Wire.Stats;
      Wire.Drain;
    ]
  in
  let session, replies =
    run_session d (List.map Wire.encode_request requests)
  in
  Alcotest.(check bool) "session saw the drain request" true
    session.Daemon.drain_requested;
  Alcotest.(check int) "all requests read" (List.length requests)
    session.Daemon.total_requests;
  let count p = List.length (List.filter p replies) in
  Alcotest.(check int) "three acks" 3
    (count (function Wire.Accepted _ -> true | _ -> false));
  Alcotest.(check int) "one stats reply" 1
    (count (function Wire.Stats_reply _ -> true | _ -> false));
  Alcotest.(check int) "one drained marker, last" 1
    (count (function Wire.Drained _ -> true | _ -> false));
  (match List.rev replies with
  | Wire.Drained _ :: _ -> ()
  | _ -> Alcotest.fail "Drained is not the final reply");
  Alcotest.(check int) "an outcome per acked event" 3
    (count (function
      | Wire.Applied _ | Wire.Quarantined_ticket _ -> true
      | _ -> false));
  Alcotest.(check int) "daemon fully drained" 0 (Daemon.pending d)

(* A frame whose CRC holds but whose payload is not a request is
   answered with a typed rejection; the session carries on. *)
let test_session_malformed () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let session, replies =
    run_session d
      [
        Wire.encode_request
          (Wire.Submit { tenant = 0; op = Wire.Connect { rules = 2 } });
        Journal.Wal.frame "not a request";
        Wire.encode_request Wire.Stats;
        Wire.encode_request Wire.Drain;
      ]
  in
  Alcotest.(check int) "all frames read" 4 session.Daemon.total_requests;
  Alcotest.(check bool) "session reached the drain" true
    session.Daemon.drain_requested;
  let count p = List.length (List.filter p replies) in
  Alcotest.(check int) "one malformed rejection" 1
    (count (function
      | Wire.Rejected { reason = "malformed request" } -> true
      | _ -> false));
  Alcotest.(check int) "later requests still served" 1
    (count (function Wire.Stats_reply _ -> true | _ -> false));
  Alcotest.(check bool) "the acked connect landed" true
    (Daemon.resolved d ~tenant:0 ~ticket:1)

(* One loop serves both session shapes: the same script over a stdio-
   shaped pipe pair and over a socketpair gives the same replies and the
   same final state, whether it ends on an explicit Drain or on EOF. *)
let test_session_parity () =
  let config =
    { small_config with Daemon.shards = 2; queue_limit = 16; batch_fsync = 3 }
  in
  let script =
    List.concat_map
      (fun tenant ->
        [
          Wire.Submit { tenant; op = Wire.Connect { rules = 3 } };
          Wire.Submit { tenant; op = Wire.Flow };
        ])
      [ 0; 1; 2; 3 ]
    @ [
        Wire.Submit { tenant = 1; op = Wire.Update { rules = 2 } };
        Wire.Submit { tenant = 2; op = Wire.Disconnect };
        Wire.Stats;
        Wire.Traffic_tick
          { seed = 4; epoch = 1; packets = 300; alpha = 1.1; drift = 0.25;
            probes = 2 };
      ]
  in
  let run over requests =
    let stores, _ = mem_stores 2 in
    let d = Daemon.create ~config ~stores () in
    let served, replies =
      run_session ~over d (List.map Wire.encode_request requests)
    in
    let signature = Daemon.signature d in
    Alcotest.(check int) "daemon fully drained" 0 (Daemon.pending d);
    Daemon.shutdown d;
    ( served.Daemon.drain_requested,
      List.sort compare replies,
      signature )
  in
  List.iter
    (fun (requests, drained) ->
      let pipe_drained, pipe_replies, pipe_sig = run `Pipe requests in
      let sock_drained, sock_replies, sock_sig = run `Socketpair requests in
      Alcotest.(check bool) "pipe: how the session ended" drained pipe_drained;
      Alcotest.(check bool) "socketpair: how the session ended" drained
        sock_drained;
      Alcotest.(check bool) "same reply multiset" true
        (pipe_replies = sock_replies);
      Alcotest.(check string) "same daemon signature" pipe_sig sock_sig;
      Alcotest.(check int) "Drained reaches a draining session"
        (if drained then 1 else 0)
        (List.length
           (List.filter
              (function Wire.Drained _ -> true | _ -> false)
              pipe_replies)))
    [ (script @ [ Wire.Drain ], true); (script, false) ]

(* A client that sends its requests and hangs up before reading a reply
   ends its session like EOF: the replies fail with EPIPE, not SIGPIPE
   (which killed the daemon before its drain), and every acked event
   still lands. *)
let test_hung_up_session_drains () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let script =
    String.concat ""
      (List.map
         (fun tenant ->
           Wire.encode_request
             (Wire.Submit { tenant; op = Wire.Connect { rules = 2 } }))
         [ 0; 1; 2 ])
  in
  ignore (Unix.write_substring theirs script 0 (String.length script));
  Unix.close theirs;
  let served = Daemon.serve_sessions d ~session:(mine, mine) () in
  Unix.close mine;
  Daemon.shutdown d;
  Alcotest.(check int) "every request read" 3 served.Daemon.total_requests;
  Alcotest.(check int) "nothing left pending" 0 (Daemon.pending d);
  List.iteri
    (fun i tenant ->
      Alcotest.(check bool)
        (Printf.sprintf "acked t%d resolved" tenant)
        true
        (Daemon.resolved d ~tenant ~ticket:(i + 1)))
    [ 0; 1; 2 ]

(* A journal snapshot that exists but does not read is not a fresh
   shard: booting it fresh would overwrite three acked connects.  The
   start is refused, naming the shard, and neither store is written. *)
let test_start_refuses_bad_snapshot () =
  List.iter
    (fun (what, blob) ->
      let journal, jmem = Journal.Store.memory () in
      let intake, imem = Journal.Store.memory () in
      let stores _ = { Shard.journal; intake } in
      let d = Daemon.create ~config:small_config ~stores () in
      List.iter
        (fun tenant ->
          match
            Daemon.submit d
              (Wire.Submit { tenant; op = Wire.Connect { rules = 2 } })
          with
          | [ Wire.Accepted _ ] -> ()
          | _ -> Alcotest.fail "connect not acked")
        [ 0; 1; 2 ];
      Daemon.shutdown d;
      Journal.Store.set_snapshot jmem (Some blob);
      let bytes () =
        ( journal.Journal.Store.wal_read (),
          Journal.Store.snapshot_of jmem,
          intake.Journal.Store.wal_read (),
          Journal.Store.snapshot_of imem )
      in
      let before = bytes () in
      (match Daemon.start ~config:small_config ~stores () with
      | Ok _ -> Alcotest.failf "%s snapshot: start booted the shard" what
      | Error { Daemon.shard; reason } ->
        Alcotest.(check int) (what ^ ": the shard is named") 0 shard;
        Alcotest.(check string) (what ^ ": the reason") what reason);
      Alcotest.(check bool) (what ^ ": both stores byte-identical") true
        (bytes () = before))
    [
      ("corrupt snapshot", "garbage");
      ( "unknown snapshot version",
        Journal.Wal.seal ~magic:"sdnplace-journal/0\n" () );
    ]

(* ---------------- round budget: per shard ---------------------------- *)

(* [round_slots] bounds each shard's round, not the daemon's: two shards
   with two slots each run four tickets in one tick, one per tenant under
   [tenant_round_cap = 1], and each tenant's second ticket waits its
   turn. *)
let test_round_budget_per_shard () =
  let config =
    {
      Daemon.default_config with
      Daemon.shards = 2;
      round_slots = 2;
      tenant_round_cap = 1;
    }
  in
  let stores, _ = mem_stores 2 in
  let d = Daemon.create ~config ~stores () in
  let admit tenant op =
    match Daemon.submit d (Wire.Submit { tenant; op }) with
    | [ Wire.Accepted _ ] -> ()
    | rs ->
      Alcotest.failf "admission: %d replies, none accepted" (List.length rs)
  in
  let tenants = [ 0; 1; 2; 3 ] in
  List.iter (fun tenant -> admit tenant (Wire.Connect { rules = 2 })) tenants;
  ignore (Daemon.tick d);
  Alcotest.(check int) "connects all ran" 0 (Daemon.pending d);
  List.iter
    (fun tenant ->
      admit tenant Wire.Flow;
      admit tenant Wire.Flow)
    tenants;
  let outcomes =
    List.filter_map
      (function
        | Wire.Applied { tenant; ticket; _ }
        | Wire.Quarantined_ticket { tenant; ticket; _ } ->
          Some (tenant, ticket)
        | _ -> None)
      (Daemon.tick d)
  in
  Alcotest.(check (list (pair int int)))
    "one ticket per tenant, shard order" [ (0, 3); (2, 5); (1, 3); (3, 5) ]
    outcomes;
  List.iter
    (fun (tenant, ticket) ->
      Alcotest.(check bool)
        (Printf.sprintf "t%d #%d still pending" tenant ticket)
        false
        (Daemon.resolved d ~tenant ~ticket))
    [ (0, 4); (2, 6); (1, 4); (3, 6) ];
  Alcotest.(check int) "second tickets queued" 4 (Daemon.pending d);
  Daemon.shutdown d

(* ---------------- crash/recovery: deterministic shard resume --------- *)

let test_shard_crash_resume_deterministic () =
  let ops =
    [
      (0, Wire.Connect { rules = 2 });
      (1, Wire.Connect { rules = 2 });
      (0, Wire.Flow);
      (1, Wire.Update { rules = 3 });
      (0, Wire.Disconnect);
      (2, Wire.Connect { rules = 2 });
      (2, Wire.Flow);
      (1, Wire.Flow);
    ]
  in
  (* Process everything pending in one unbounded round, then snapshot:
     the shard's half of [Daemon.drain]. *)
  let drain shard =
    ignore
      (Shard.execute_batch shard
         (Shard.plan_round shard ~slots:max_int ~tenant_cap:max_int));
    Shard.snapshot shard
  in
  let run ~kill_after =
    let journal, jmem = Journal.Store.memory () in
    let intake, imem = Journal.Store.memory () in
    let stores = { Shard.journal; intake } in
    let armed = ref kill_after in
    let kill _ =
      match !armed with
      | Some n when n <= 0 -> raise (Journal.Journaled.Killed "test")
      | Some n -> armed := Some (n - 1)
      | None -> ()
    in
    let config = Shard.default_config in
    let shard = ref (Shard.create ~config ~kill ~stores ~seed:5 ~id:0 ()) in
    let acked = ref [] in
    let crashed = ref false in
    List.iter
      (fun (tenant, op) ->
        acked := Shard.admit !shard ~tenant ~op :: !acked;
        Shard.flush_intake !shard;
        match drain !shard with
        | _ -> ()
        | exception Journal.Journaled.Killed _ ->
          crashed := true;
          armed := None;
          Journal.Store.crash jmem;
          Journal.Store.crash imem;
          (match Shard.recover ~config ~kill ~stores ~seed:5 ~id:0 () with
          | Error e -> Alcotest.failf "recovery failed: %s" e
          | Ok r ->
            Alcotest.(check (list string)) "no divergence" [] r.Shard.divergences;
            shard := r.Shard.shard);
          drain !shard)
      ops;
    Alcotest.(check bool) "armed kill actually fired" true
      (!crashed = (kill_after <> None));
    List.iter
      (fun ticket ->
        Alcotest.(check bool)
          (Printf.sprintf "ticket %d resolved" ticket)
          true
          (Shard.resolved !shard ~ticket))
      !acked;
    ( Shard.signature !shard,
      List.map (fun t -> Shard.tenant_signature !shard ~tenant:t)
        (Shard.tenants !shard) )
  in
  (* the same kill point twice: byte-identical final state *)
  let a = run ~kill_after:(Some 40) in
  let b = run ~kill_after:(Some 40) in
  Alcotest.(check bool) "crashed runs reproducible" true (a = b);
  let c = run ~kill_after:None in
  let d = run ~kill_after:None in
  Alcotest.(check bool) "uncrashed runs reproducible" true (c = d)

(* ---------------- executor: order, completion rule, determinism ------ *)

let test_exec_pool () =
  let module Exec = Serve.Exec in
  (* results land in task order at every jobs, every task runs *)
  List.iter
    (fun jobs ->
      let e = Exec.create ~jobs in
      Fun.protect ~finally:(fun () -> Exec.stop e) @@ fun () ->
      let ran = Array.make 7 false in
      let tasks =
        Array.init 7 (fun i () ->
            ran.(i) <- true;
            i * 10)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d results in task order" jobs)
        (Array.init 7 (fun i -> i * 10))
        (Exec.run e tasks);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d every task ran" jobs)
        true
        (Array.for_all Fun.id ran))
    [ 1; 2; 4; 8 ];
  (* completion rule: a failing task never stops the others, and the
     first failure in index order is what re-raises — at any jobs *)
  let e = Exec.create ~jobs:3 in
  let ran = Array.make 6 false in
  let tasks =
    Array.init 6 (fun i () ->
        ran.(i) <- true;
        if i = 2 then failwith "boom-2";
        if i = 4 then failwith "boom-4";
        i)
  in
  (match Exec.run e tasks with
  | _ -> Alcotest.fail "a failing task must re-raise"
  | exception Failure m ->
    Alcotest.(check string) "first failure in index order" "boom-2" m);
  Alcotest.(check bool) "failed round still ran every task" true
    (Array.for_all Fun.id ran);
  Exec.stop e;
  Exec.stop e;
  (* stop is idempotent, and a stopped executor refuses work *)
  match Exec.run e [| (fun () -> 0) |] with
  | _ -> Alcotest.fail "run after stop accepted"
  | exception Invalid_argument _ -> ()

(* ---------------- group commit: acks wait for the covering fsync ----- *)

let test_group_commit_acks () =
  let config =
    {
      Daemon.default_config with
      Daemon.seed = 5;
      shards = 2;
      batch_fsync = 3;
      queue_limit = 32;
      tenant_queue_limit = 8;
    }
  in
  let stores, crash = mem_stores 2 in
  let d = Daemon.create ~config ~stores () in
  let sub t =
    Daemon.submit d (Wire.Submit { tenant = t; op = Wire.Connect { rules = 2 } })
  in
  Alcotest.(check int) "first admission staged, not acked" 0
    (List.length (sub 0));
  Alcotest.(check int) "second admission staged" 0 (List.length (sub 1));
  let acked = ref [] in
  let note = function
    | Wire.Accepted { tenant; ticket } -> acked := (tenant, ticket) :: !acked
    | _ -> Alcotest.fail "wanted an acceptance"
  in
  (* the batch-filling admission releases every staged ack, in order *)
  (match sub 2 with
  | [
      Wire.Accepted { tenant = 0; _ };
      Wire.Accepted { tenant = 1; _ };
      Wire.Accepted { tenant = 2; _ };
    ] as acks ->
    List.iter note acks
  | _ -> Alcotest.fail "batch-filling admission must release acks in order");
  (* a partial batch is released by the next tick, ack before outcome *)
  Alcotest.(check int) "fourth admission staged" 0 (List.length (sub 3));
  (match Daemon.tick d with
  | Wire.Accepted { tenant = 3; _ } :: _ as replies ->
    List.iter
      (function Wire.Accepted _ as a -> note a | _ -> ())
      replies
  | _ -> Alcotest.fail "tick must release the staged ack before outcomes");
  let stats = Daemon.intake_stats d in
  Alcotest.(check bool) "fewer intake barriers than appends" true
    (stats.Daemon.fsyncs < stats.Daemon.appends);
  (* every released ack survives a crash: recover, drain, probe *)
  crash ();
  Daemon.shutdown d;
  let s = start_ok ~config ~stores () in
  Alcotest.(check (list string)) "clean recovery" [] s.Daemon.divergences;
  let d2 = s.Daemon.daemon in
  ignore (Daemon.drain d2);
  List.iter
    (fun (tenant, ticket) ->
      Alcotest.(check bool)
        (Printf.sprintf "acked t%d #%d resolved after crash" tenant ticket)
        true
        (Daemon.resolved d2 ~tenant ~ticket))
    !acked;
  Daemon.shutdown d2

(* ---------------- every intake barrier is counted -------------------- *)

(* [batch_fsync = 1] fsyncs inside every admission and larger batches
   at the group-commit flush; the counter must see both. *)
let test_intake_fsyncs_counted () =
  let counted () =
    Telemetry.Metrics.counter_value
      (Telemetry.Metrics.counter "sdnplace_serve_intake_fsyncs_total")
  in
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Telemetry.Metrics.disable ())
  @@ fun () ->
  List.iter
    (fun batch_fsync ->
      let name = Printf.sprintf "batch_fsync %d" batch_fsync in
      let config =
        {
          Daemon.default_config with
          Daemon.seed = 7;
          shards = 2;
          batch_fsync;
          queue_limit = 32;
          tenant_queue_limit = 8;
        }
      in
      let stores, _ = mem_stores 2 in
      let before = counted () in
      let d = Daemon.create ~config ~stores () in
      let gen = Serve.Loadgen.make ~tenants:6 ~seed:7 () in
      for _ = 1 to 10 do
        for _ = 1 to 5 do
          ignore (Daemon.submit d (Serve.Loadgen.next gen))
        done;
        ignore (Daemon.tick d)
      done;
      ignore (Daemon.drain d);
      let stats = Daemon.intake_stats d in
      Daemon.shutdown d;
      Alcotest.(check bool) (name ^ ": barriers issued") true
        (stats.Daemon.fsyncs > 0);
      if batch_fsync = 1 then
        Alcotest.(check int) (name ^ ": one barrier per admission")
          stats.Daemon.appends stats.Daemon.fsyncs;
      Alcotest.(check int) (name ^ ": counter equals the barriers")
        stats.Daemon.fsyncs
        (counted () - before))
    [ 1; 4 ]

(* ---------------- drain snapshot keeps eventless resolutions -------- *)

(* A quarantined ticket never reaches the journal, so only the shard
   snapshot can make its resolution durable.  The drain snapshot must
   carry it: a restart that forgot it would re-issue its number. *)
let test_drain_keeps_quarantined_ticket () =
  let stores, _ = mem_stores 1 in
  let d = Daemon.create ~config:small_config ~stores () in
  let admit tenant op =
    match Daemon.submit d (Wire.Submit { tenant; op }) with
    | [ Wire.Accepted { ticket; _ } ] -> ticket
    | _ -> Alcotest.fail "admission not acked"
  in
  Alcotest.(check int) "connect is #1" 1 (admit 0 (Wire.Connect { rules = 2 }));
  Alcotest.(check int) "flow is #2" 2 (admit 1 Wire.Flow);
  let replies = Daemon.drain d in
  Alcotest.(check bool) "#2 quarantined as not connected" true
    (List.exists
       (function
         | Wire.Quarantined_ticket
             { tenant = 1; ticket = 2; reason = "not connected" } ->
           true
         | _ -> false)
       replies);
  let before = Daemon.signature d in
  Daemon.shutdown d;
  let s = start_ok ~config:small_config ~stores () in
  let d2 = s.Daemon.daemon in
  Alcotest.(check (list string)) "clean recovery" [] s.Daemon.divergences;
  Alcotest.(check bool) "#2 still resolved" true
    (Daemon.resolved d2 ~tenant:1 ~ticket:2);
  Alcotest.(check string) "signature survives the restart" before
    (Daemon.signature d2);
  (match Daemon.submit d2 (Wire.Submit { tenant = 1; op = Wire.Flow }) with
  | [ Wire.Accepted { ticket = 3; _ } ] -> ()
  | _ -> Alcotest.fail "next admission: wanted ticket 3 accepted");
  Daemon.shutdown d2

(* ---------------- stats: untearable under a concurrent reader -------- *)

let test_stats_atomic_audit () =
  let config =
    {
      Daemon.default_config with
      Daemon.seed = 9;
      shards = 2;
      jobs = 2;
      queue_limit = 64;
      tenant_queue_limit = 16;
    }
  in
  let stores, _ = mem_stores 2 in
  let d = Daemon.create ~config ~stores () in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let samples = Atomic.make 0 in
  (* Each counter is one Atomic read and only ever grows, so any
     snapshot — from any domain, at any moment — must be monotone in
     [accepted] and satisfy applied + quarantined <= accepted.  A
     struct-level torn read (the pre-Atomic failure mode) breaks both. *)
  let reader =
    Domain.spawn (fun () ->
        let last = ref (-1) in
        while not (Atomic.get stop) do
          (match Daemon.stats_reply d with
          | Wire.Stats_reply { accepted; applied; quarantined; _ } ->
            Atomic.incr samples;
            if applied + quarantined > accepted || accepted < !last then
              Atomic.incr torn;
            last := max !last accepted
          | _ -> Atomic.incr torn);
          Domain.cpu_relax ()
        done)
  in
  let gen = Serve.Loadgen.make ~tenants:6 ~seed:9 () in
  for _ = 1 to 25 do
    for _ = 1 to 4 do
      ignore (Daemon.submit d (Serve.Loadgen.next gen))
    done;
    ignore (Daemon.tick d)
  done;
  ignore (Daemon.drain d);
  Atomic.set stop true;
  Domain.join reader;
  Daemon.shutdown d;
  Alcotest.(check int) "no torn stats read" 0 (Atomic.get torn);
  Alcotest.(check bool) "reader actually sampled" true (Atomic.get samples > 0)

(* ---------------- multi-session accept loop -------------------------- *)

let test_serve_sessions_multiplex () =
  let config =
    {
      Daemon.default_config with
      Daemon.seed = 3;
      shards = 2;
      jobs = 2;
      batch_fsync = 2;
      queue_limit = 32;
      tenant_queue_limit = 8;
    }
  in
  let stores, _ = mem_stores 2 in
  let d = Daemon.create ~config ~stores () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdnplace-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 4;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Daemon.shutdown d)
    (fun () ->
      let server =
        Domain.spawn (fun () ->
            Daemon.serve_sessions d ~listen ~max_sessions:2 ())
      in
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let a = connect () in
      let b = connect () in
      let send fd r =
        let s = Wire.encode_request r in
        ignore (Unix.write_substring fd s 0 (String.length s))
      in
      send a (Wire.Submit { tenant = 0; op = Wire.Connect { rules = 2 } });
      send b (Wire.Submit { tenant = 1; op = Wire.Connect { rules = 2 } });
      send a (Wire.Submit { tenant = 0; op = Wire.Flow });
      send b Wire.Drain;
      (* the server closes every session after the drain broadcast *)
      let read_all fd =
        let bytes = read_to_eof fd in
        Unix.close fd;
        let replies, consumed = Wire.decode_replies bytes in
        Alcotest.(check int) "no torn reply bytes" (String.length bytes) consumed;
        replies
      in
      let ra = read_all a in
      let rb = read_all b in
      let served = Domain.join server in
      Alcotest.(check int) "two sessions served" 2 served.Daemon.sessions;
      Alcotest.(check int) "four requests" 4 served.Daemon.total_requests;
      Alcotest.(check bool) "ended on explicit drain" true
        served.Daemon.drain_requested;
      let count p rs = List.length (List.filter p rs) in
      let acks t =
        count (function Wire.Accepted { tenant; _ } -> tenant = t | _ -> false)
      in
      let outcomes t =
        count (function
          | Wire.Applied { tenant; _ } | Wire.Quarantined_ticket { tenant; _ }
            -> tenant = t
          | _ -> false)
      in
      (* per-tenant replies route to the session that submitted them *)
      Alcotest.(check int) "A's acks" 2 (acks 0 ra);
      Alcotest.(check int) "B's acks" 1 (acks 1 rb);
      Alcotest.(check int) "no cross-routing to A" 0 (acks 1 ra + outcomes 1 ra);
      Alcotest.(check int) "no cross-routing to B" 0 (acks 0 rb + outcomes 0 rb);
      Alcotest.(check int) "A's outcomes" 2 (outcomes 0 ra);
      Alcotest.(check int) "B's outcomes" 1 (outcomes 1 rb);
      Alcotest.(check int) "drain broadcast to both" 2
        (count (function Wire.Drained _ -> true | _ -> false) ra
        + count (function Wire.Drained _ -> true | _ -> false) rb);
      Alcotest.(check int) "daemon fully drained" 0 (Daemon.pending d))

(* ---------------- the property: admission never loses an acked event - *)

(* One full daemon life against a seeded stream: random submits in
   bursts, a scheduling round per burst, crashes at the generated
   kill-point counters (stores crash-truncated, daemon restarted from
   its journals), a final restart-free drain.  Returns everything the
   property needs. *)
let daemon_life ~seed ~kills () =
  let config =
    {
      Daemon.default_config with
      Daemon.seed;
      shards = 2;
      queue_limit = 10;
      tenant_queue_limit = 3;
      round_slots = 4;
      tenant_round_cap = 2;
    }
  in
  let stores, crash = mem_stores config.Daemon.shards in
  let kill_plan = ref kills in
  let armed = ref None in
  let arm () =
    match !kill_plan with
    | n :: rest ->
      kill_plan := rest;
      armed := Some n
    | [] -> armed := None
  in
  arm ();
  (* A single global kill counter across shards — deterministic only
     because this life runs at jobs = 1 (shard batches execute in shard
     order on one domain).  The cross-jobs property below uses per-shard
     counters instead. *)
  let kill ~shard:_ _ =
    match !armed with
    | Some n when n <= 0 -> raise (Journal.Journaled.Killed "qcheck")
    | Some n -> armed := Some (n - 1)
    | None -> ()
  in
  let gen = Serve.Loadgen.make ~tenants:4 ~seed () in
  let d = ref (Daemon.create ~config ~kill ~stores ()) in
  let acked = ref [] in
  let shed = ref 0 in
  let crashes = ref 0 in
  let divergences = ref [] in
  let record = function
    | Wire.Accepted { tenant; ticket } -> acked := (tenant, ticket) :: !acked
    | Wire.Rejected_overload _ -> incr shed
    | _ -> ()
  in
  for _ = 1 to 15 do
    for _ = 1 to 3 do
      List.iter record (Daemon.submit !d (Serve.Loadgen.next gen))
    done;
    match Daemon.tick !d with
    | _ -> ()
    | exception Journal.Journaled.Killed _ ->
      incr crashes;
      crash ();
      arm ();
      let s = start_ok ~config ~kill ~stores () in
      divergences := !divergences @ s.Daemon.divergences;
      d := s.Daemon.daemon
  done;
  armed := None;
  ignore (Daemon.drain !d);
  let lost =
    List.filter
      (fun (tenant, ticket) -> not (Daemon.resolved !d ~tenant ~ticket))
      !acked
  in
  ( lost,
    !divergences,
    !shed,
    !crashes,
    (Daemon.signature !d, Daemon.tenant_signatures !d) )

let qcheck_no_lost_acks =
  QCheck.Test.make ~count:12
    ~name:"no acked event lost; equal seeds, equal signatures"
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 2) (5 -- 250)))
    (fun (seed, kills) ->
      let lost1, div1, _, _, sig1 = daemon_life ~seed ~kills () in
      let lost2, div2, _, _, sig2 = daemon_life ~seed ~kills () in
      if lost1 <> [] || lost2 <> [] then
        QCheck.Test.fail_reportf "lost acked tickets: %s"
          (String.concat ","
             (List.map
                (fun (tn, tk) -> Printf.sprintf "%d/%d" tn tk)
                (lost1 @ lost2)));
      if div1 <> [] || div2 <> [] then
        QCheck.Test.fail_reportf "recovery divergence: %s"
          (String.concat "; " (div1 @ div2));
      if sig1 <> sig2 then
        QCheck.Test.fail_reportf
          "equal seeds and kill plans gave different final signatures";
      true)

(* One daemon life at a given [jobs], with {e per-shard} kill plans:
   under a parallel executor only each shard's own journal stream is
   schedule-independent, so the crash lever must count kill points per
   shard (a global counter across shards would fire at a
   scheduling-dependent point).  Group commit is on, so acks arrive
   batched; the life records them all and the property checks none is
   lost and that every jobs value produces the same bytes. *)
let daemon_life_at ~jobs ~seed ~kills () =
  let shards = 2 in
  let config =
    {
      Daemon.default_config with
      Daemon.seed;
      shards;
      queue_limit = 10;
      tenant_queue_limit = 3;
      round_slots = 4;
      jobs;
      batch_fsync = 2;
    }
  in
  let stores, crash = mem_stores shards in
  let kill_plan = ref kills in
  let armed = Array.make shards None in
  let arm () =
    Array.fill armed 0 shards None;
    match !kill_plan with
    | (s, n) :: rest ->
      kill_plan := rest;
      armed.(s mod shards) <- Some n
    | [] -> ()
  in
  arm ();
  let kill ~shard _ =
    match armed.(shard) with
    | Some n when n <= 0 -> raise (Journal.Journaled.Killed "qcheck-jobs")
    | Some n -> armed.(shard) <- Some (n - 1)
    | None -> ()
  in
  let gen = Serve.Loadgen.make ~tenants:4 ~seed () in
  let d = ref (Daemon.create ~config ~kill ~stores ()) in
  let acked = ref [] in
  let crashes = ref 0 in
  let divergences = ref [] in
  let record = function
    | Wire.Accepted { tenant; ticket } -> acked := (tenant, ticket) :: !acked
    | _ -> ()
  in
  for _ = 1 to 12 do
    for _ = 1 to 3 do
      List.iter record (Daemon.submit !d (Serve.Loadgen.next gen))
    done;
    match Daemon.tick !d with
    | replies -> List.iter record replies
    | exception Journal.Journaled.Killed _ ->
      incr crashes;
      crash ();
      Daemon.shutdown !d;
      arm ();
      let s = start_ok ~config ~kill ~stores () in
      divergences := !divergences @ s.Daemon.divergences;
      d := s.Daemon.daemon
  done;
  Array.fill armed 0 shards None;
  List.iter record (Daemon.drain !d);
  let lost =
    List.filter
      (fun (tenant, ticket) -> not (Daemon.resolved !d ~tenant ~ticket))
      !acked
  in
  let sigs = (Daemon.signature !d, Daemon.tenant_signatures !d) in
  Daemon.shutdown !d;
  (lost, !divergences, !crashes, List.rev !acked, sigs)

(* The serving stack's exact bytes, pinned: a seeded Loadgen life at
   jobs = 1 must end on these daemon and tenant signatures and answer a
   traffic tick with this reply. *)
let test_serve_golden () =
  let config =
    { Daemon.default_config with Daemon.seed = 5; shards = 2; jobs = 1 }
  in
  let stores, _ = mem_stores 2 in
  let d = Daemon.create ~config ~stores () in
  let gen = Serve.Loadgen.make ~tenants:6 ~seed:5 () in
  for _ = 1 to 15 do
    for _ = 1 to 4 do
      ignore (Daemon.submit d (Serve.Loadgen.next gen))
    done;
    ignore (Daemon.tick d)
  done;
  ignore (Daemon.drain d);
  let tick =
    Wire.Traffic_tick
      { seed = 3; epoch = 2; packets = 4096; alpha = 1.1; drift = 0.25;
        probes = 3 }
  in
  let replies = Daemon.submit d tick in
  let tenants =
    List.map (fun (t, s) -> Printf.sprintf "%d %s" t s)
      (Daemon.tenant_signatures d)
  in
  let daemon_sig = Daemon.signature d in
  Daemon.shutdown d;
  (* every probe is aimed at one of the tenants' drop rules
     (Traffic.Controller.probe_field), and every one of them fires *)
  Alcotest.(check bool) "traffic tick reply" true
    (replies
    = [
        Wire.Traffic_report
          { epoch = 2; flows = 6; delivered = 0; dropped = 8192 };
      ]);
  Alcotest.(check string) "daemon signature" "6ab416cc6dc085f07b08f75330248a8d" daemon_sig;
  Alcotest.(check string) "tenant signatures digest" "0965144baed24cd7ea0848a99fb6e40a"
    (Digest.to_hex (Digest.string (String.concat "\n" tenants)))

let qcheck_jobs_identical =
  QCheck.Test.make ~count:8
    ~name:"jobs=1 and jobs=4 lives are byte-identical, crashes included"
    QCheck.(
      pair small_nat (list_of_size Gen.(0 -- 2) (pair (0 -- 1) (5 -- 150))))
    (fun (seed, kills) ->
      let lost1, div1, crashes1, acked1, sig1 =
        daemon_life_at ~jobs:1 ~seed ~kills ()
      in
      let lost4, div4, crashes4, acked4, sig4 =
        daemon_life_at ~jobs:4 ~seed ~kills ()
      in
      if lost1 <> [] || lost4 <> [] then
        QCheck.Test.fail_reportf "lost acked tickets: %s"
          (String.concat ","
             (List.map
                (fun (tn, tk) -> Printf.sprintf "%d/%d" tn tk)
                (lost1 @ lost4)));
      if div1 <> [] || div4 <> [] then
        QCheck.Test.fail_reportf "recovery divergence: %s"
          (String.concat "; " (div1 @ div4));
      if crashes1 <> crashes4 then
        QCheck.Test.fail_reportf "kill plans fired %d vs %d times" crashes1
          crashes4;
      if acked1 <> acked4 then
        QCheck.Test.fail_reportf "ack streams differ between jobs=1 and jobs=4";
      if sig1 <> sig4 then
        QCheck.Test.fail_reportf
          "jobs=1 and jobs=4 gave different final signatures";
      true)

let suite =
  [
    Alcotest.test_case "wire codec roundtrips" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire codec survives torn and corrupt streams" `Quick
      test_wire_torn_and_corrupt;
    Alcotest.test_case "framed channel reader" `Quick test_wire_live_reader;
    qtest qcheck_one_reader;
    Alcotest.test_case "metrics dump and traffic tick wire ops" `Quick
      test_metrics_and_traffic_ops;
    Alcotest.test_case "non-finite traffic parameters are rejected" `Quick
      test_traffic_tick_rejects_non_finite;
    Alcotest.test_case "zero shards, jobs or sessions are rejected" `Quick
      test_rejects_empty_sizes;
    Alcotest.test_case "admission bounds are typed, acked events land" `Quick
      test_admission_bounds_typed;
    Alcotest.test_case "circuit breaker trips, cools down, closes" `Quick
      test_breaker_machine;
    Alcotest.test_case "framed session drains gracefully" `Quick
      test_session_drains;
    Alcotest.test_case "framed session rejects a malformed request" `Quick
      test_session_malformed;
    Alcotest.test_case "stdio and socket sessions are served alike" `Quick
      test_session_parity;
    Alcotest.test_case "a hung-up session drains" `Quick
      test_hung_up_session_drains;
    Alcotest.test_case "start refuses an unreadable snapshot" `Quick
      test_start_refuses_bad_snapshot;
    Alcotest.test_case "round budget is per shard" `Quick
      test_round_budget_per_shard;
    Alcotest.test_case "shard crash-resume is deterministic" `Quick
      test_shard_crash_resume_deterministic;
    Alcotest.test_case "executor: order, completion rule, stop" `Quick
      test_exec_pool;
    Alcotest.test_case "group commit: acks wait for the covering barrier"
      `Quick test_group_commit_acks;
    Alcotest.test_case "intake fsync counter sees every barrier" `Quick
      test_intake_fsyncs_counted;
    Alcotest.test_case "drain snapshot keeps a quarantined ticket" `Quick
      test_drain_keeps_quarantined_ticket;
    Alcotest.test_case "stats reply untearable under a concurrent reader"
      `Quick test_stats_atomic_audit;
    Alcotest.test_case "accept loop multiplexes two sessions" `Quick
      test_serve_sessions_multiplex;
    Alcotest.test_case "seeded life matches its golden signatures" `Quick
      test_serve_golden;
    qtest qcheck_no_lost_acks;
    qtest qcheck_jobs_identical;
  ]
