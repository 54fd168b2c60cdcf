(** Structured 5-tuple matching fields.

    A field is the matching part of a firewall rule: source/destination
    prefixes, source/destination port ranges and a protocol.  Because each
    component is an interval-like set, all the set algebra the placement
    engine needs (overlap, containment, intersection) is exact and cheap —
    componentwise.  {!to_tbvs} expands a field into the flat ternary TCAM
    entries a switch would actually store (the cross product of the port
    ranges' prefix covers), which is how real TCAM slot usage is counted. *)

type t = {
  src : Prefix.t;
  dst : Prefix.t;
  sport : Range.t;
  dport : Range.t;
  proto : Proto.t;
}

val make :
  ?src:Prefix.t ->
  ?dst:Prefix.t ->
  ?sport:Range.t ->
  ?dport:Range.t ->
  ?proto:Proto.t ->
  unit ->
  t
(** Unspecified components default to wildcards. *)

val any : t
(** Matches every packet. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val matches : t -> Packet.t -> bool

val overlaps : t -> t -> bool
(** Whether some packet matches both fields. *)

val subsumes : t -> t -> bool
(** [subsumes a b] iff every packet matching [b] matches [a]. *)

val inter : t -> t -> t option
(** Exact intersection ([None] when disjoint): 5-tuple fields are closed
    under intersection componentwise. *)

val width : int
(** Total ternary width of an expanded entry: 32+32+16+16+8 = 104. *)

val to_tbvs : t -> Tbv.t list
(** Flat TCAM expansion; its length is {!tcam_entries}. *)

val tcam_entries : t -> int
(** Number of TCAM slots one copy of this field consumes. *)

val to_cube : t -> Cube.t
(** The field's packet set as a union of ternary cubes (exact). *)

val packet_of_tbv : Tbv.t -> Packet.t
(** A concrete packet inside a width-{!width} cube (wildcards become 0).
    Raises [Invalid_argument] on other widths.  Inverse-ish of
    {!to_tbvs}: the packet matches the cube it came from. *)

val random_packet : Prng.t -> t -> Packet.t
(** A uniformly random packet matching the field. *)

val pp : Format.formatter -> t -> unit
