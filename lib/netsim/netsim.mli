(** Data-plane simulator: installed switch tables plus packet walking.

    This is the ground truth the placement verifier tests against: a
    packet enters at an ingress host, is stamped with that ingress's tag
    (the paper's Section IV-A5 VLAN tagging), follows its routed path, and
    at every switch is matched against the installed prioritized table.
    Any switch DROP kills the packet; reaching the end of the path
    delivers it. *)

type entry = {
  tags : int list;
      (** ingress policies this entry applies to; a merged rule carries
          several tags (Section IV-B), a plain rule exactly one *)
  rule : Acl.Rule.t;
}

(** A data plane is an [entry list array]: slot [k] holds the
    prioritized table of switch [k] in match order (first entry wins). *)

val remove_first : entry -> entry list -> entry list option
(** The table without its first entry structurally equal to the given
    one; [None] when there is none. *)

(** {2 Version tags}

    Two-phase consistent updates (see [Runtime.Update]) key the shadow
    copy of a new-placement entry on {!vtag}[ ingress] and mark an
    ingress whose stamping flipped to the new version with an entry
    tagged {!stamp_tag}[ ingress].  Both bits live far above any real
    host id: a packet walking with a plain ingress tag never matches a
    shadow or a stamp, and a versioned walk never matches an
    old-placement entry. *)

val version_bit : int
val stamp_bit : int

val vtag : int -> int
(** The new-version alias of an ingress tag. *)

val stamp_tag : int -> int
(** The tag a flip-marker (stamp) entry for an ingress carries. *)

val is_version_tag : int -> bool
val is_stamp_tag : int -> bool

val base_tag : int -> int
(** Strip the version/stamp bits back to the plain ingress id. *)

val changed_tags :
  entry list array -> entry list array -> int list * int list * int
(** [changed_tags old new] is the tags, ascending, whose projection
    differs on some switch: the entries carrying the tag, in match
    order, duplicates included.  Version and stamp tags are listed like
    any other.  Only switches whose tables differ (physically, then
    structurally) are read, and their entries are grouped by tag in one
    pass; the second component is those switches, ascending, and the
    third counts the entries grouped, old and new.  Raises
    [Invalid_argument] when the switch counts differ. *)

val step :
  entry list array -> switch:int -> tag:int -> Ternary.Packet.t -> Acl.Rule.action
(** First-match outcome of one switch for a packet stamped [tag] (an
    ingress id, possibly carrying the version bit); [Permit] when
    nothing matches.  The walk primitive consistent-update barrier
    checks use on live and reference tables alike. *)

type outcome = Delivered | Dropped of int  (** switch where it died *)

val forward :
  entry list array -> Routing.Path.t -> tag:int -> Ternary.Packet.t -> outcome
(** Walk the packet, stamped [tag], along the path's switches: the
    path's ingress for a plain walk, its version alias for a packet
    ingress-stamped with the new version mid-update. *)

type view
(** A first-match view of the tables by tag: per tag and switch, the
    rules of the entries carrying that tag, in match order.  A walk
    through it scans only its own tag's entries. *)

val tag_view : ?only:(int -> bool) -> entry list array -> view
(** Built in one pass over every installed entry, keeping the tags
    [only] accepts (default all). *)

val forward_view :
  view -> Routing.Path.t -> tag:int -> Ternary.Packet.t -> outcome
(** {!forward} on the tables the view was built from: the same
    outcome for every tag the view kept, packet and path over its
    switches. *)

type hop = {
  hop_switch : int;
  matched : int option;
      (** index (match order) of the entry that fired, [None] when the
          packet fell through to the implicit permit *)
}
(** One switch visit of a traced walk — the per-rule hit accounting the
    traffic cache layer feeds on. *)

val forward_trace :
  entry list array ->
  Routing.Path.t ->
  tag:int ->
  Ternary.Packet.t ->
  outcome * hop list
(** {!forward}, additionally reporting which entry matched at
    every switch visited.  Hops are in walk order; a drop ends the list
    at the dropping switch. *)

val pp_outcome : Format.formatter -> outcome -> unit
