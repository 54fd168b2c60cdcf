(** Exact first-match semantics of rule lists as cube regions.

    First-match means a rule only decides packets that no higher-priority
    rule matches; with {!Ternary.Cube} subtraction that region is
    computable exactly.  Because the policy default is PERMIT, the
    effective DROP region determines the whole semantics — two rule lists
    are equivalent iff their drop regions are equal as sets.

    All functions may raise {!Ternary.Cube.Budget_exceeded} on
    pathologically fragmented rule lists; callers (tests, the exact
    verifier) fall back to sampling in that case. *)

val effective_regions : Rule.t list -> (Rule.t * Ternary.Cube.t) list
(** [effective_regions rules] pairs each rule (given highest-priority
    first — the order of {!Policy.rules}) with the exact packet region it
    decides. *)

val drop_region : Policy.t -> Ternary.Cube.t
(** Exact region of packets the policy drops. *)

val drop_region_of_rules : Rule.t list -> Ternary.Cube.t
(** Same over an explicitly ordered rule list (first rule matched first),
    e.g. an installed switch table. *)

val equal : Policy.t -> Policy.t -> bool
(** Exact semantic equality (agreement on every one of the 2^104
    packets). *)
