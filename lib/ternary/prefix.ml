type t = { addr : int; len : int }

let mask_of_len len = if len = 0 then 0 else -1 lsl (32 - len) land 0xFFFFFFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length must be in [0, 32]";
  if addr < 0 || addr > 0xFFFFFFFF then invalid_arg "Prefix.make: address outside 32 bits";
  { addr = addr land mask_of_len len; len }

let any = { addr = 0; len = 0 }

let addr t = t.addr

let len t = t.len

let equal a b = a.addr = b.addr && a.len = b.len

let compare a b =
  let c = Stdlib.compare a.addr b.addr in
  if c <> 0 then c else Stdlib.compare a.len b.len

let subsumes p q = p.len <= q.len && q.addr land mask_of_len p.len = p.addr

let inter p q =
  if subsumes p q then Some q else if subsumes q p then Some p else None

let to_tbv p = Tbv.prefix ~width:32 ~value:p.addr ~len:p.len

let of_string s =
  let addr_of s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] ->
      let byte x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg "Prefix.of_string: bad octet"
      in
      (byte a lsl 24) lor (byte b lsl 16) lor (byte c lsl 8) lor byte d
    | _ -> invalid_arg "Prefix.of_string: expected dotted quad"
  in
  match String.index_opt s '/' with
  | None -> make (addr_of s) 32
  | Some i ->
    let len =
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some l -> l
      | None -> invalid_arg "Prefix.of_string: bad length"
    in
    make (addr_of (String.sub s 0 i)) len

let to_string p =
  Printf.sprintf "%d.%d.%d.%d/%d"
    ((p.addr lsr 24) land 0xFF)
    ((p.addr lsr 16) land 0xFF)
    ((p.addr lsr 8) land 0xFF)
    (p.addr land 0xFF) p.len

let random_member g p =
  let free = 32 - p.len in
  if free = 0 then p.addr
  else p.addr lor (Prng.int g (1 lsl free))

let random_subprefix g p ~len =
  if len < p.len || len > 32 then
    invalid_arg "Prefix.random_subprefix: length must be in [len p, 32]";
  make (p.addr lor (Prng.int g (1 lsl (32 - p.len)) land mask_of_len len)) len

let pp fmt p = Format.pp_print_string fmt (to_string p)
