(** Rule dependency graphs (the paper's Section IV-A1).

    For one policy, the dependency graph records, for every DROP rule,
    the higher-priority PERMIT rules with overlapping matching fields.
    Placing the DROP at a switch without those PERMITs would let it drop
    packets the policy permits, so the ILP's rule-dependency constraint
    (Eq. 1) co-locates them.

    Only one level of dependencies exists: PERMITs never endanger other
    rules (a permit at one switch merely passes the packet onward; DROP
    rules elsewhere on the path still apply), so the closure stops at
    permit <- drop edges. *)

type t

val build : Acl.Policy.t -> t

val policy : t -> Acl.Policy.t

val dependencies : t -> Acl.Rule.t -> Acl.Rule.t list
(** [dependencies g drop] = the PERMIT rules that must accompany [drop],
    in descending priority.  Empty for permits.  The rule is looked up by
    priority; unknown priorities raise [Invalid_argument]. *)

val required_permits : t -> Acl.Rule.t list -> Acl.Rule.t list
(** Union of dependencies of the given drops, deduplicated, descending
    priority — the extra TCAM freight of placing that drop set together. *)

val num_edges : t -> int

val pp : Format.formatter -> t -> unit
