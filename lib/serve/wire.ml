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

let scope_name = function Global -> "global" | Tenant -> "tenant"

let describe_reply = function
  | Accepted { tenant; ticket } -> Printf.sprintf "accepted t%d #%d" tenant ticket
  | Rejected_overload { tenant; scope; queued; limit } ->
    Printf.sprintf "rejected-overload t%d %s %d/%d" tenant (scope_name scope)
      queued limit
  | Rejected { reason } -> Printf.sprintf "rejected (%s)" reason
  | Applied { tenant; ticket; rung; verified; quarantined } ->
    Printf.sprintf "applied t%d #%d rung=%s verified=%b quarantined=%b" tenant
      ticket (Runtime.Report.rung_name rung) verified quarantined
  | Quarantined_ticket { tenant; ticket; reason } ->
    Printf.sprintf "quarantined t%d #%d (%s)" tenant ticket reason
  | Drained { processed } -> Printf.sprintf "drained processed=%d" processed
  | Stats_reply { tenants; accepted; applied; quarantined; shed; pending } ->
    Printf.sprintf
      "stats tenants=%d accepted=%d applied=%d quarantined=%d shed=%d pending=%d"
      tenants accepted applied quarantined shed pending
  | Metrics_text { text } ->
    Printf.sprintf "metrics (%d bytes)" (String.length text)
  | Traffic_report { epoch; flows; delivered; dropped } ->
    Printf.sprintf "traffic epoch=%d flows=%d delivered=%d dropped=%d" epoch
      flows delivered dropped

let encode_request (r : request) = Journal.Wal.frame (Marshal.to_string r [])
let encode_reply (r : reply) = Journal.Wal.frame (Marshal.to_string r [])

(* Decoding walks the checksummed frames first ({!Journal.Wal.scan_payloads})
   and only then lets Marshal near the payloads, with the same guard the
   WAL scan uses: a CRC collision or cross-build frame truncates the
   stream rather than raising. *)
let decode_with (of_payload : string -> 'a option) stream =
  let payloads, consumed = Journal.Wal.scan_payloads stream in
  let rec go acc used = function
    | [] -> (List.rev acc, consumed)
    | p :: rest -> (
      match of_payload p with
      | Some m -> go (m :: acc) (used + String.length p + 8) rest
      | None -> (List.rev acc, used))
  in
  go [] 0 payloads

let request_of_payload p =
  match (Marshal.from_string p 0 : request) with
  | r -> Some r
  | exception _ -> None

let reply_of_payload p =
  match (Marshal.from_string p 0 : reply) with
  | r -> Some r
  | exception _ -> None

let decode_requests s = decode_with request_of_payload s
let decode_replies s = decode_with reply_of_payload s

type frames = Frames of string list | Torn

(* Incremental sibling of [decode_requests] for non-blocking sessions: a
   session buffer grows by whatever [read] returned, which can end
   mid-frame.  A short tail is *not* an error — the frames so far are
   returned and the tail stays buffered for the next read.  Only an
   impossible length or a CRC mismatch is [Torn]: unlike the
   prefix-decode used on complete streams, a live session can
   distinguish "not yet arrived" from "never valid", and must kill the
   connection on the latter instead of silently eating its tail. *)
let take_frames buf =
  let data = Buffer.contents buf in
  let n = String.length data in
  let rec go acc off =
    if n - off < 8 then Ok (List.rev acc, off)
    else
      let len = Int32.to_int (String.get_int32_be data off) in
      if len < 0 || len > 1 lsl 24 then Error ()
      else if n - off < 8 + len then Ok (List.rev acc, off)
      else
        match Journal.Wal.unframe (String.sub data off (8 + len)) with
        | Some payload -> go (payload :: acc) (off + 8 + len)
        | None -> Error ()
  in
  match go [] 0 with
  | Error () -> Torn
  | Ok (payloads, consumed) ->
    let rest = String.sub data consumed (n - consumed) in
    Buffer.clear buf;
    Buffer.add_string buf rest;
    Frames payloads

let read_message ic =
  match really_input_string ic 8 with
  | exception End_of_file -> None
  | header -> (
    let len = Int32.to_int (String.get_int32_be header 0) in
    if len < 0 || len > 1 lsl 24 then None
    else
      match really_input_string ic len with
      | exception End_of_file -> None
      | payload -> Journal.Wal.unframe (header ^ payload))
