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

type stop = Short | Bad

(* The one frame walk.  The length is checked against [cap] before the
   walk waits for the payload, so an over-cap header is [Bad] at once,
   not a short tail that never completes; payloads are handed on in
   place, never copied. *)
let walk ~cap s f =
  let total = String.length s in
  let rec go pos =
    if total - pos < header_len then (pos, Short)
    else
      let len = Int32.to_int (String.get_int32_be s pos) in
      if len < 0 || len > cap then (pos, Bad)
      else if total - pos - header_len < len then (pos, Short)
      else
        let crc = Int32.to_int (String.get_int32_be s (pos + 4)) land 0xFFFFFFFF in
        if Crc32.sub s ~pos:(pos + header_len) ~len <> crc then (pos, Bad)
        else if f (pos + header_len) len then go (pos + header_len + len)
        else (pos, Bad)
  in
  go 0

let unframe s =
  let payload = ref None in
  ignore
    (walk ~cap:max_record_len s (fun pos len ->
         if header_len + len = String.length s then
           payload := Some (String.sub s pos len);
         false));
  !payload

let pack v = frame (Marshal.to_string v [])

(* A CRC proves the bytes arrived as sent, not that a build of this
   type wrote them: [Marshal] must find exactly one value spanning the
   payload, and whatever it raises on the rest is a [None]. *)
let unpack s ~pos ~len =
  match Marshal.total_size (Bytes.unsafe_of_string s) pos with
  | n when n = len -> ( try Some (Marshal.from_string s pos) with _ -> None)
  | _ | (exception _) -> None

let encode (r : record) = pack r

let seal ~magic v = frame (magic ^ Marshal.to_string v [])

(* The magic is checked before [Marshal] reads a byte: a blob of another
   format or version is refused, never misread. *)
let unseal ~magic blob =
  match unframe blob with
  | None -> Error "corrupt snapshot"
  | Some p when not (String.starts_with ~prefix:magic p) ->
    Error "unknown snapshot version"
  | Some p -> (
    let m = String.length magic in
    match unpack p ~pos:m ~len:(String.length p - m) with
    | Some v -> Ok v
    | None -> Error "corrupt snapshot")

(* A record that passes the CRC but not [unpack] (a colliding corruption,
   or a record written by an incompatible build) truncates the tail like
   a torn one: recovery never raises. *)
let scan log =
  let records = ref [] in
  let consumed, _ =
    walk ~cap:max_record_len log (fun pos len ->
        match unpack log ~pos ~len with
        | Some (r : record) ->
          records := r :: !records;
          true
        | None -> false)
  in
  (List.rev !records, consumed)
