(* serve_storm: an in-process [Serve.Daemon] (jobs=1, group commit on,
   in-memory stores) under one closed-loop client sending
   [Serve.Loadgen] bursts, the flooding tenant and chaos ops included.
   Every request and reply crosses the wire codec: the client encodes a
   burst, the daemon side decodes it, submits each request, encodes the
   replies of the submits, of a group-commit flush and of one
   scheduling tick, and the client decodes them.  One op is one
   accepted request, timed from its encode to the decode of its outcome
   reply.  Chaos ops kill switches and links for good, so the run is
   split into episodes, each on a fresh daemon whose tenants connected
   during set-up.  An op is ok when it is answered [Applied] with
   verified=true; shed requests count as not ok. *)

let tenants = 8
let burst = 8
let episode = 1500

let config ~seed =
  let shard = Serve.Shard.default_config in
  {
    Serve.Daemon.default_config with
    Serve.Daemon.seed;
    jobs = 1;
    batch_fsync = 16;
    shard =
      {
        shard with
        Serve.Shard.engine =
          (* far above any op here: no rung may depend on host speed *)
          { shard.Serve.Shard.engine with Runtime.Engine.deadline_s = 60.0 };
      };
  }

type episode_state = {
  daemon : Serve.Daemon.t;
  gen : Serve.Loadgen.t;
}

let journal_probe = Meter.probe ()
let intake_probe = Meter.probe ()

let stores _ =
  let journal, _ = Journal.Store.memory () in
  let intake, _ = Journal.Store.memory () in
  {
    Serve.Shard.journal = Meter.probed journal_probe journal;
    intake = Meter.probed ~timer:"bench.intake" intake_probe intake;
  }

(* Boot a daemon and connect every tenant (one policy each), ticking
   until nothing is pending. *)
let boot ~seed e =
  let eseed = (seed * 7919) + e in
  let daemon = Serve.Daemon.create ~config:(config ~seed:eseed) ~stores () in
  for tenant = 0 to tenants - 1 do
    ignore
      (Serve.Daemon.submit daemon
         (Serve.Wire.Submit { tenant; op = Serve.Wire.Connect { rules = 4 } }))
  done;
  while Serve.Daemon.pending daemon > 0 do
    ignore (Serve.Daemon.tick daemon)
  done;
  { daemon; gen = Serve.Loadgen.make ~tenants ~seed:eseed () }

let run ~seed ~requests =
  let episodes = (requests + episode - 1) / episode in
  let boot_times = ref [] in
  let states =
    Array.init episodes (fun e ->
        let t0 = Meter.now () in
        let s = boot ~seed e in
        boot_times := (Meter.now () -. t0) :: !boot_times;
        ignore (Meter.calibrate ());
        s)
  in
  let setup_s = Meter.median !boot_times *. float_of_int episodes in
  let intake0 =
    Array.fold_left
      (fun acc s -> acc + (Serve.Daemon.intake_stats s.daemon).Serve.Daemon.fsyncs)
      0 states
  in
  Meter.reset_probe journal_probe;
  Meter.reset_probe intake_probe;
  Meter.reset ();
  let errs = ref [] and failed = ref 0 in
  let submitted = ref 0 and accepted = ref 0 and shed = ref 0 in
  let applied = ref 0 and ok = ref 0 and quarantined = ref 0 in
  let request_bytes = ref 0 in
  let rungs = Hashtbl.create 8 in
  let chunker = Meter.chunker () in
  let digests = Buffer.create 1024 in
  let bad msg =
    incr failed;
    Meter.note_error errs msg
  in
  Array.iteri
    (fun e s ->
      let d = s.daemon in
      let lat = ref [] in
      let t_start = Meter.now () and accepted0 = !accepted in
      let sent = Hashtbl.create 1024 in
      let acked = ref [] in
      (* admitted requests awaiting their ack, admission order *)
      let unacked = Queue.create () in
      let out = Buffer.create 4096 and encoded = ref 0 in
      let emit replies =
        List.iter
          (fun r ->
            (match r with
            | Serve.Wire.Accepted { tenant; ticket } -> (
              incr accepted;
              acked := (tenant, ticket) :: !acked;
              match Queue.take_opt unacked with
              | Some (t, ts) when t = tenant -> Hashtbl.replace sent (tenant, ticket) ts
              | _ -> bad (Printf.sprintf "episode %d: ack out of order" e))
            | Serve.Wire.Rejected_overload _ -> incr shed
            | Serve.Wire.Rejected { reason } -> bad ("rejected: " ^ reason)
            | _ -> ());
            incr encoded;
            Buffer.add_string out
              (Meter.call "bench.wire_encode" (fun () -> Serve.Wire.encode_reply r)))
          replies
      in
      let receive t_recv replies =
        List.iter
          (function
            | Serve.Wire.Applied { tenant; ticket; verified; rung; _ } ->
              incr applied;
              Meter.count_rung rungs rung;
              if verified then incr ok
              else bad (Printf.sprintf "episode %d: ticket %d/%d unverified" e tenant ticket);
              Option.iter
                (fun ts -> lat := (t_recv -. ts) :: !lat)
                (Hashtbl.find_opt sent (tenant, ticket))
            | Serve.Wire.Quarantined_ticket { tenant; ticket; _ } ->
              incr quarantined;
              Option.iter
                (fun ts -> lat := (t_recv -. ts) :: !lat)
                (Hashtbl.find_opt sent (tenant, ticket))
            | _ -> ())
          replies
      in
      let cycle n =
        (* client: one encoded burst *)
        let burst_bytes = Buffer.create 1024 in
        let stamps = Queue.create () in
        for _ = 1 to n do
          let req = Serve.Loadgen.next s.gen in
          let ts = Meter.now () in
          let b = Meter.call "bench.wire_encode" (fun () -> Serve.Wire.encode_request req) in
          request_bytes := !request_bytes + String.length b;
          Buffer.add_string burst_bytes b;
          (match req with
          | Serve.Wire.Submit { tenant; _ } -> Queue.add (tenant, ts) stamps
          | _ -> ());
          incr submitted
        done;
        (* daemon side: decode, admit, commit, one round *)
        Buffer.clear out;
        encoded := 0;
        let reqs, _ =
          Meter.call "bench.wire_decode" (fun () ->
              Serve.Wire.decode_requests (Buffer.contents burst_bytes))
        in
        List.iter
          (fun req ->
            let stamp = Queue.take stamps in
            let replies = Meter.call "bench.submit" (fun () -> Serve.Daemon.submit d req) in
            if not (List.exists (function Serve.Wire.Rejected_overload _ -> true | _ -> false) replies)
            then Queue.add stamp unacked;
            emit replies)
          reqs;
        emit (Meter.call "bench.flush" (fun () -> Serve.Daemon.flush d));
        emit (Meter.call "bench.tick" (fun () -> Serve.Daemon.tick d));
        (* client: decode every reply of the cycle *)
        let replies, _ =
          Meter.call "bench.wire_decode" (fun () ->
              Serve.Wire.decode_replies (Buffer.contents out))
        in
        receive (Meter.now ()) replies;
        if List.length replies <> !encoded then
          bad (Printf.sprintf "episode %d: %d replies sent, %d decoded" e !encoded
                 (List.length replies));
        Meter.fold_spans ()
      in
      let left = ref (min episode (requests - (e * episode))) in
      while !left > 0 do
        let n = min burst !left in
        cycle n;
        left := !left - n
      done;
      Buffer.clear out;
      emit (Meter.call "bench.drain" (fun () -> Serve.Daemon.drain d));
      let replies, _ = Serve.Wire.decode_replies (Buffer.contents out) in
      receive (Meter.now ()) replies;
      Meter.fold_spans ();
      List.iter
        (fun (tenant, ticket) ->
          if not (Serve.Daemon.resolved d ~tenant ~ticket) then
            bad (Printf.sprintf "episode %d: acked ticket %d/%d unresolved" e tenant ticket))
        !acked;
      Meter.close_chunk chunker ~ops:(!accepted - accepted0)
        ~secs:(Meter.now () -. t_start) (Array.of_list !lat);
      Buffer.add_string digests (Serve.Daemon.signature d);
      Buffer.add_char digests '\n';
      Serve.Daemon.shutdown d)
    states;
  let intake_fsyncs =
    Array.fold_left
      (fun acc s -> acc + (Serve.Daemon.intake_stats s.daemon).Serve.Daemon.fsyncs)
      0 states
    - intake0
  in
  (* the store probe and the daemon's own count see the same barriers *)
  if intake_probe.syncs <> intake_fsyncs then
    bad
      (Printf.sprintf "intake probe saw %d syncs, Daemon.intake_stats %d" intake_probe.syncs
         intake_fsyncs);
  Buffer.add_string digests
    (Printf.sprintf "submitted=%d accepted=%d shed=%d applied=%d quarantined=%d ok=%d\n"
       !submitted !accepted !shed !applied !quarantined !ok);
  let n = !accepted in
  let per x = Meter.per n x in
  let us name = per (Meter.secs name) *. 1e6 in
  let frac x = Meter.per !submitted (float_of_int x) in
  let jp = journal_probe in
  let alloc =
    List.fold_left
      (fun acc c -> acc +. Meter.words c)
      0.0
      [ "bench.wire_encode"; "bench.wire_decode"; "bench.submit"; "bench.flush"; "bench.tick"; "bench.drain" ]
  in
  {
    Meter.attempted = !submitted;
    failed = !failed;
    errors = List.rev !errs;
    ok = !ok;
    digest = Digest.to_hex (Digest.string (Buffer.contents digests));
    setup_s;
    chunks = Meter.chunks chunker;
    kernel_s = Meter.median !Meter.calib;
    rules_installed = 0.0;
    counts =
      Meter.rung_layers rungs
      @ [
        ("serve.accepted", float_of_int n);
        ("serve.shed", float_of_int !shed);
        ("serve.applied", float_of_int !applied);
        ("serve.quarantined", float_of_int !quarantined);
        ("serve.intake_fsyncs", float_of_int intake_fsyncs);
        ("journal.appends", float_of_int jp.appends);
        ("journal.wal_bytes", float_of_int jp.append_bytes);
        ("journal.syncs", float_of_int jp.syncs);
        ("journal.snapshots", float_of_int jp.snaps);
        ("wire.request_bytes", float_of_int !request_bytes);
        ("gc.alloc_words.submit", Meter.words "bench.submit");
        ("gc.alloc_words.tick", Meter.words "bench.tick");
        ("gc.alloc_words.wire", Meter.words "bench.wire_encode" +. Meter.words "bench.wire_decode");
      ];
    layer =
      Meter.library_layers ~ops:n
      @ Meter.rung_layers rungs
      @ [
          ("runtime.waves_per_op", per (float_of_int (Meter.delta "sdnplace_update_waves_total")));
          ( "runtime.switch_retries_per_op",
            per (float_of_int (Meter.delta "sdnplace_switch_retries_total")) );
          ("journal.appends_per_op", per (float_of_int jp.appends));
          ("journal.wal_bytes_per_op", per (float_of_int jp.append_bytes));
          ("journal.syncs_per_op", per (float_of_int jp.syncs));
          ("journal.snapshots", float_of_int jp.snaps);
          ( "journal.snapshot_bytes",
            if jp.snaps > 0 then float_of_int jp.snap_bytes /. float_of_int jp.snaps else 0.0 );
          ("serve.submit_us", Meter.secs "bench.submit" /. float_of_int (max 1 !submitted) *. 1e6);
          ("serve.flush_us", Meter.secs "bench.flush" /. float_of_int (max 1 (Meter.calls "bench.flush")) *. 1e6);
          ("serve.tick_ms", Meter.secs "bench.tick" /. float_of_int (max 1 (Meter.calls "bench.tick")) *. 1e3);
          ("serve.drain_ms", Meter.secs "bench.drain" /. float_of_int (max 1 (Meter.calls "bench.drain")) *. 1e3);
          ("serve.intake_fsyncs_per_event", per (float_of_int intake_fsyncs));
          ("serve.shed_frac", frac !shed);
          ("serve.quarantined_frac", frac !quarantined);
          ("wire.encode_us", us "bench.wire_encode");
          ("wire.decode_us", us "bench.wire_decode");
          ("wire.bytes_per_request", Meter.per !submitted (float_of_int !request_bytes));
          ("gc.alloc_mw.submit", Meter.words "bench.submit" /. float_of_int (max 1 !submitted) /. 1e6);
          ("gc.alloc_mw.tick", per (Meter.words "bench.tick") /. 1e6);
          ("gc.alloc_mw.wire", per (Meter.words "bench.wire_encode" +. Meter.words "bench.wire_decode") /. 1e6);
          ("gc.alloc_mw_per_op", per alloc /. 1e6);
        ];
  }
