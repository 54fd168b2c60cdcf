(** Concrete packet headers over the classic 5-tuple. *)

type t = {
  src : int;  (** 32-bit source address *)
  dst : int;  (** 32-bit destination address *)
  sport : int;  (** 16-bit source port *)
  dport : int;  (** 16-bit destination port *)
  proto : int;  (** 8-bit protocol number *)
}

val make : src:int -> dst:int -> sport:int -> dport:int -> proto:int -> t
(** Raises [Invalid_argument] when a component is out of range. *)

val random : Prng.t -> t
(** Uniform over the whole header space. *)

val pp : Format.formatter -> t -> unit
