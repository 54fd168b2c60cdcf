(** Prioritized ACL policies.

    A policy [Q_i] is the firewall attached to one network ingress: a list
    of rules with pairwise-distinct priorities.  Packets not matching any
    rule are permitted (the usual default for cloud security-group style
    policies, and the convention the paper's DROP-placement formulation
    relies on: only DROP rules must be materialized somewhere on a path). *)

type t

val of_rules : Rule.t list -> t
(** Normalizes to descending priority order.
    Raises [Invalid_argument] if two rules share a priority. *)

val of_fields : (Ternary.Field.t * Rule.action) list -> t
(** Convenience: assigns priorities [n, n-1, ..., 1] in list order (first
    rule = highest priority). *)

val rules : t -> Rule.t list
(** Descending priority. *)

val size : t -> int

val drops : t -> Rule.t list

val evaluate : t -> Ternary.Packet.t -> Rule.action
(** First-match semantics; [Permit] when nothing matches. *)

val first_match : t -> Ternary.Packet.t -> Rule.t option

val max_priority : t -> int
(** 0 for the empty policy. *)

val add_rule : t -> Rule.t -> t
(** Raises [Invalid_argument] on a duplicate priority. *)

val remove_rule : t -> priority:int -> t
(** Drops the rule with that priority; no-op if absent. *)

val witness_seq : t -> Ternary.Packet.t Seq.t
(** Deterministic probe sequence exercising every rule and every
    pairwise overlap region: for each rule a packet in its field, then
    for each overlapping pair a packet in the intersection.  Lazy: each
    packet is drawn only when reached, so [Seq.take n] costs [n] draws
    instead of one per rule and per overlapping pair; used by the
    placement verifier. *)

val pp : Format.formatter -> t -> unit
