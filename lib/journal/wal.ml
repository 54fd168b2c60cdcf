type record =
  | Ev_begin of {
      seq : int;
      event : Runtime.Event.t;
      client : string option;
      rungs : Runtime.Report.rung list option;
    }
  | Tx_intent of {
      seq : int;
      undo : Netsim.entry list array;
      redo : Netsim.entry list array;
    }
  | Tx_commit of { seq : int }
  | Ev_commit of { seq : int; signature : string }

let seq_of = function
  | Ev_begin { seq; _ }
  | Tx_intent { seq; _ }
  | Tx_commit { seq }
  | Ev_commit { seq; _ } ->
    seq

let describe = function
  | Ev_begin { seq; event; _ } ->
    Printf.sprintf "ev_begin[%d] %s" seq (Runtime.Event.describe event)
  | Tx_intent { seq; _ } -> Printf.sprintf "tx_intent[%d]" seq
  | Tx_commit { seq } -> Printf.sprintf "tx_commit[%d]" seq
  | Ev_commit { seq; signature } -> Printf.sprintf "ev_commit[%d] %s" seq signature

(* Frame: [u32 len BE][u32 crc BE][payload].  A record a power cut tore
   mid-write fails either the length bound or the CRC — never Marshal. *)

let header_len = 8

(* Anything bigger than this is a corrupt length field, not a record:
   even a full-state snapshot of the largest benchmark instance is
   orders of magnitude smaller. *)
let max_record_len = 1 lsl 30

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b header_len len;
  Bytes.unsafe_to_string b

(* Reads the frame starting at [pos]; [None] when the bytes there are
   short, implausible, or fail the checksum. *)
let unframe_at s pos =
  let total = String.length s in
  if total - pos < header_len then None
  else
    let len = Int32.to_int (String.get_int32_be s pos) in
    let crc =
      Int32.to_int (String.get_int32_be s (pos + 4)) land 0xFFFFFFFF
    in
    if len < 0 || len > max_record_len || len > total - pos - header_len then None
    else if Crc32.sub s ~pos:(pos + header_len) ~len <> crc then None
    else Some (String.sub s (pos + header_len) len)

let unframe s =
  match unframe_at s 0 with
  | Some payload when header_len + String.length payload = String.length s ->
    Some payload
  | _ -> None

let encode r = frame (Marshal.to_string r [])

let seal ~magic v = frame (magic ^ Marshal.to_string v [])

(* The magic is checked before [Marshal] reads a byte: a blob of another
   format or version is refused, never misread. *)
let unseal ~magic blob =
  match unframe blob with
  | None -> Error "corrupt snapshot"
  | Some p when not (String.starts_with ~prefix:magic p) ->
    Error "unknown snapshot version"
  | Some p -> (
    match Marshal.from_string p (String.length magic) with
    | v -> Ok v
    | exception _ -> Error "corrupt snapshot")

(* The generic frame walk: the longest prefix of whole, checksummed
   frames.  The serving layer's intake logs and wire protocol share this
   framing, so the tear-tolerant scan lives here once. *)
let scan_payloads log =
  let payloads = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    match unframe_at log !pos with
    | None -> stop := true
    | Some payload ->
      payloads := payload :: !payloads;
      pos := !pos + header_len + String.length payload
  done;
  (List.rev !payloads, !pos)

let scan log =
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    match unframe_at log !pos with
    | None -> stop := true
    | Some payload -> (
      (* CRC passed, but guard Marshal anyway: a colliding corruption or
         a record written by an incompatible build must truncate the
         tail, not take down recovery. *)
      match (Marshal.from_string payload 0 : record) with
      | r ->
        records := r :: !records;
        pos := !pos + header_len + String.length payload
      | exception _ -> stop := true)
  done;
  (List.rev !records, !pos)
