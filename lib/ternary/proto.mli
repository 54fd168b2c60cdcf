(** IP protocol field of a classifier: either a wildcard or one 8-bit
    protocol number (6 = TCP, 17 = UDP, 1 = ICMP, ...). *)

type t = Any | Eq of int

val tcp : t
val udp : t
val icmp : t

val equal : t -> t -> bool
val compare : t -> t -> int

val inter : t -> t -> t option

val to_tbv : t -> Tbv.t
(** 8-position ternary encoding. *)

val random_member : Prng.t -> t -> int

val pp : Format.formatter -> t -> unit
