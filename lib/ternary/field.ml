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

let matches t (p : Packet.t) =
  Prefix.member t.src p.src && Prefix.member t.dst p.dst
  && Range.member t.sport p.sport && Range.member t.dport p.dport
  && Proto.member t.proto p.proto

let overlaps a b =
  Prefix.overlaps a.src b.src && Prefix.overlaps a.dst b.dst
  && Range.overlaps a.sport b.sport && Range.overlaps a.dport b.dport
  && Proto.overlaps a.proto b.proto

let subsumes a b =
  Prefix.subsumes a.src b.src && Prefix.subsumes a.dst b.dst
  && Range.subsumes a.sport b.sport && Range.subsumes a.dport b.dport
  && Proto.subsumes a.proto b.proto

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
