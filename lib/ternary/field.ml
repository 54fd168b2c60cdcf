type t = {
  src : Prefix.t;
  dst : Prefix.t;
  sport : Range.t;
  dport : Range.t;
  proto : Proto.t;
}

let make ?(src = Prefix.any) ?(dst = Prefix.any) ?(sport = Range.full)
    ?(dport = Range.full) ?(proto = Proto.Any) () =
  { src; dst; sport; dport; proto }

let any = make ()

let equal a b =
  Prefix.equal a.src b.src && Prefix.equal a.dst b.dst
  && Range.equal a.sport b.sport && Range.equal a.dport b.dport
  && Proto.equal a.proto b.proto

let compare a b =
  let c = Prefix.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Prefix.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Range.compare a.sport b.sport in
      if c <> 0 then c
      else
        let c = Range.compare a.dport b.dport in
        if c <> 0 then c else Proto.compare a.proto b.proto

(* The three predicates below are the placement's innermost tests, so
   they compare the components in place rather than through [Prefix],
   [Range] and [Proto]: the dev profile compiles with [-opaque], which
   keeps every cross-module call a real call.  [-1 lsl (32 - len)] keeps
   an address's top [len] bits (none at [len = 0]), and addresses are
   stored masked, so two prefixes meet when they agree on the shorter
   one's mask. *)
let matches t (p : Packet.t) =
  p.src land (-1 lsl (32 - t.src.len)) = t.src.addr
  && p.dst land (-1 lsl (32 - t.dst.len)) = t.dst.addr
  && t.sport.lo <= p.sport && p.sport <= t.sport.hi
  && t.dport.lo <= p.dport && p.dport <= t.dport.hi
  && match t.proto with Proto.Any -> true | Proto.Eq x -> x = p.proto

let overlaps a b =
  (a.src.addr lxor b.src.addr)
  land (-1 lsl (32 - if a.src.len < b.src.len then a.src.len else b.src.len))
  = 0
  && (a.dst.addr lxor b.dst.addr)
     land (-1 lsl (32 - if a.dst.len < b.dst.len then a.dst.len else b.dst.len))
     = 0
  && a.sport.lo <= b.sport.hi && b.sport.lo <= a.sport.hi
  && a.dport.lo <= b.dport.hi && b.dport.lo <= a.dport.hi
  &&
  match (a.proto, b.proto) with
  | Proto.Eq x, Proto.Eq y -> x = y
  | Proto.Any, _ | _, Proto.Any -> true

let subsumes a b =
  a.src.len <= b.src.len
  && b.src.addr land (-1 lsl (32 - a.src.len)) = a.src.addr
  && a.dst.len <= b.dst.len
  && b.dst.addr land (-1 lsl (32 - a.dst.len)) = a.dst.addr
  && a.sport.lo <= b.sport.lo && b.sport.hi <= a.sport.hi
  && a.dport.lo <= b.dport.lo && b.dport.hi <= a.dport.hi
  &&
  match (a.proto, b.proto) with
  | Proto.Any, _ -> true
  | Proto.Eq _, Proto.Any -> false
  | Proto.Eq x, Proto.Eq y -> x = y

let inter a b =
  match Prefix.inter a.src b.src with
  | None -> None
  | Some src -> (
    match Prefix.inter a.dst b.dst with
    | None -> None
    | Some dst -> (
      match Range.inter a.sport b.sport with
      | None -> None
      | Some sport -> (
        match Range.inter a.dport b.dport with
        | None -> None
        | Some dport -> (
          match Proto.inter a.proto b.proto with
          | None -> None
          | Some proto -> Some { src; dst; sport; dport; proto }))))

let width = 32 + 32 + 16 + 16 + 8

let to_tbvs t =
  let src = Prefix.to_tbv t.src and dst = Prefix.to_tbv t.dst in
  let proto = Proto.to_tbv t.proto in
  let sports = Range.to_tbvs t.sport and dports = Range.to_tbvs t.dport in
  List.concat_map
    (fun sp ->
      List.map
        (fun dp ->
          Tbv.concat (Tbv.concat (Tbv.concat (Tbv.concat src dst) sp) dp) proto)
        dports)
    sports

let to_cube t = Cube.of_tbvs ~width (to_tbvs t)

let packet_of_tbv c =
  if Tbv.width c <> width then
    invalid_arg "Field.packet_of_tbv: expected a 104-bit cube";
  let value lo len =
    let v = ref 0 in
    for i = lo to lo + len - 1 do
      let bit = match Tbv.get c i with Tbv.One -> 1 | Tbv.Zero | Tbv.Star -> 0 in
      v := (!v lsl 1) lor bit
    done;
    !v
  in
  Packet.make ~src:(value 0 32) ~dst:(value 32 32) ~sport:(value 64 16)
    ~dport:(value 80 16) ~proto:(value 96 8)

let tcam_entries t =
  List.length (Range.to_prefixes t.sport)
  * List.length (Range.to_prefixes t.dport)

let random_packet g t =
  Packet.make
    ~src:(Prefix.random_member g t.src)
    ~dst:(Prefix.random_member g t.dst)
    ~sport:(Range.random_member g t.sport)
    ~dport:(Range.random_member g t.dport)
    ~proto:(Proto.random_member g t.proto)

let pp fmt t =
  Format.fprintf fmt "src %a dst %a sport %a dport %a proto %a" Prefix.pp t.src
    Prefix.pp t.dst Range.pp t.sport Range.pp t.dport Proto.pp t.proto
