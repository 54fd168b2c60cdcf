type t = { src : int; dst : int; sport : int; dport : int; proto : int }

let make ~src ~dst ~sport ~dport ~proto =
  let check name v limit =
    if v < 0 || v > limit then
      invalid_arg (Printf.sprintf "Packet.make: %s out of range" name)
  in
  check "src" src 0xFFFFFFFF;
  check "dst" dst 0xFFFFFFFF;
  check "sport" sport 0xFFFF;
  check "dport" dport 0xFFFF;
  check "proto" proto 0xFF;
  { src; dst; sport; dport; proto }

let random g =
  {
    src = Prng.int g 0x100000000;
    dst = Prng.int g 0x100000000;
    sport = Prng.int g 0x10000;
    dport = Prng.int g 0x10000;
    proto = Prng.int g 0x100;
  }

let pp fmt p =
  let ip a =
    Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
      ((a lsr 8) land 0xFF) (a land 0xFF)
  in
  Format.fprintf fmt "%s:%d -> %s:%d proto %d" (ip p.src) p.sport (ip p.dst)
    p.dport p.proto
