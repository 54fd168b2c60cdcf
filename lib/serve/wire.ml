type chaos = Kill_switch | Cut_link | Shrink_capacity

type op =
  | Connect of { rules : int }
  | Flow
  | Update of { rules : int }
  | Disconnect
  | Chaos of chaos

type request =
  | Submit of { tenant : int; op : op }
  | Drain
  | Stats
  | Metrics_dump
  | Traffic_tick of {
      seed : int;
      epoch : int;
      packets : int;
      alpha : float;
      drift : float;
      probes : int;
    }

type scope = Global | Tenant

type reply =
  | Accepted of { tenant : int; ticket : int }
  | Rejected_overload of {
      tenant : int;
      scope : scope;
      queued : int;
      limit : int;
    }
  | Rejected of { reason : string }
  | Applied of {
      tenant : int;
      ticket : int;
      rung : Runtime.Report.rung;
      verified : bool;
      quarantined : bool;
    }
  | Quarantined_ticket of { tenant : int; ticket : int; reason : string }
  | Drained of { processed : int }
  | Stats_reply of {
      tenants : int;
      accepted : int;
      applied : int;
      quarantined : int;
      shed : int;
      pending : int;
    }
  | Metrics_text of { text : string }
  | Traffic_report of {
      epoch : int;
      flows : int;
      delivered : int;
      dropped : int;
    }

(* The wire's frame cap: a length field above it is corrupt, and the
   bound keeps a session's buffer from growing without limit on outside
   input. *)
let max_frame_len = 1 lsl 24

let encode_request (r : request) = Journal.Wal.pack r
let encode_reply (r : reply) = Journal.Wal.pack r

(* A whole stream is cut at the first payload that is not a message,
   as the WAL scan cuts at the first record it cannot read. *)
let decode_with stream =
  let msgs = ref [] in
  let consumed, _ =
    Journal.Wal.walk ~cap:max_frame_len stream (fun pos len ->
        match Journal.Wal.unpack stream ~pos ~len with
        | Some m ->
          msgs := m :: !msgs;
          true
        | None -> false)
  in
  (List.rev !msgs, consumed)

let decode_requests s : request list * int = decode_with s
let decode_replies s : reply list * int = decode_with s

(* A live session answers a payload that is not a request and reads on,
   so every whole frame is taken; only [Bad] ends the stream. *)
let take_requests buf =
  let data = Buffer.contents buf in
  let reqs = ref [] in
  let consumed, stop =
    Journal.Wal.walk ~cap:max_frame_len data (fun pos len ->
        reqs := (Journal.Wal.unpack data ~pos ~len : request option) :: !reqs;
        true)
  in
  Buffer.clear buf;
  Buffer.add_substring buf data consumed (String.length data - consumed);
  (List.rev !reqs, stop)
