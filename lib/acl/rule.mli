(** Firewall (ACL) rules: a matching field, a binary action and a priority.

    Rules follow the paper's Section III formulation: each rule
    [r = (m, d, t)] has a 5-tuple matching field [m], a decision
    [d ∈ {PERMIT, DROP}] and a priority [t]; within a policy priorities are
    strictly ordered and a packet is governed by the highest-priority rule
    whose field matches it. *)

type action = Permit | Drop

type t = {
  field : Ternary.Field.t;
  action : action;
  priority : int;  (** Higher value = higher priority (matched first). *)
}

val make : field:Ternary.Field.t -> action:action -> priority:int -> t

val action_equal : action -> action -> bool

val equal : t -> t -> bool
(** Structural equality including priority. *)

val is_drop : t -> bool
val is_permit : t -> bool

val overlaps : t -> t -> bool
(** Field overlap. *)

val matches : t -> Ternary.Packet.t -> bool

val compare_priority_desc : t -> t -> int
(** Sorts highest priority first. *)

val pp : Format.formatter -> t -> unit
val pp_action : Format.formatter -> action -> unit
