(** IPv4 address prefixes in CIDR notation.

    A prefix [a.b.c.d/len] denotes the set of 32-bit addresses whose top
    [len] bits equal those of [a.b.c.d].  Prefix sets are laminar: two
    prefixes are either disjoint or one contains the other, which makes the
    intersection of two overlapping prefixes simply the longer one. *)

type t = private { addr : int; len : int }
(** [addr] is stored masked: its bits below [len] are zero, so two
    prefixes meet exactly when they agree on the shorter one's mask. *)

val make : int -> int -> t
(** [make addr len] with [addr] a 32-bit address (host byte order) and
    [0 <= len <= 32].  Bits of [addr] below the prefix length are cleared.
    Raises [Invalid_argument] on a bad length or an address outside 32
    bits. *)

val any : t
(** [0.0.0.0/0], the full address space. *)

val addr : t -> int
(** Base address (low bits zero). *)

val len : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val inter : t -> t -> t option
(** [None] when disjoint; otherwise the longer (more specific) prefix. *)

val to_tbv : t -> Tbv.t
(** 32-position ternary encoding. *)

val of_string : string -> t
(** Parses ["10.1.0.0/16"]; a bare address means [/32].
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val random_member : Prng.t -> t -> int
(** Uniformly random address inside the prefix. *)

val random_subprefix : Prng.t -> t -> len:int -> t
(** [random_subprefix g p ~len] is a uniformly random prefix of length
    [len >= len p] contained in [p]. *)

val pp : Format.formatter -> t -> unit
