(** One routed path: the ordered switches a flow traverses from an ingress
    host to an egress host, plus the flow region riding it.

    [flow] supports the paper's Section IV-C path slicing: only policy
    rules overlapping [flow] need to be placed along this path.  The
    default [Field.any] means "any packet may take this path", i.e. no
    slicing. *)

type t = {
  ingress : int;  (** source host id *)
  egress : int;  (** destination host id *)
  switches : int array;  (** ordered, ingress-side first; never empty *)
  flow : Ternary.Field.t;
}

val make :
  ?flow:Ternary.Field.t -> ingress:int -> egress:int -> switches:int list -> unit -> t
(** Raises [Invalid_argument] on an empty switch list. *)

val position : t -> int -> int option
(** [position p s] is the 0-based index of switch [s] on the path (the
    paper's [loc(s, P)] distance-from-ingress), [None] if off-path. *)

val mem : t -> int -> bool
