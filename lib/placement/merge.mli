(** Cross-policy rule merging (the paper's Section IV-B).

    Rules that are {e identical} — same matching field, same action — but
    belong to different ingress policies (typically a network-wide
    blacklist) can be installed as a single TCAM entry whose tag field is
    the union of the policies, saving capacity.  A {!group} collects such
    members; the encoding then adds a merged variable per (group, switch)
    defined as the AND of the members' placement variables (Eqs. 4-5/8).

    Merging is only sound if the merged entries can be consistently
    ordered in one table.  Order matters exactly between overlapping
    rules with different actions; when two groups appear in opposite
    relative order in different policies (the paper's Fig. 5), the
    induced order constraints are cyclic.  {!plan} detects cycles on the
    full entry-level order graph and breaks them with the paper's dummy
    trick: the offending member leaves its group, and a {e dummy} copy of
    the rule is inserted lower in that policy (where it is shadowed by
    the original, so semantics are untouched) to rejoin the group at a
    cycle-free position.  Dummies carry ordinary dependency constraints
    but no path-coverage constraint (they decide nothing). *)

type member = { ingress : int; priority : int; is_dummy : bool }

type group = {
  gid : int;
  field : Ternary.Field.t;
  action : Acl.Rule.action;
  members : member list;  (** at least two, distinct ingresses *)
}

type plan = { groups : group list }

val empty_plan : plan

val dummy_set : plan -> (int * int, unit) Hashtbl.t
(** Keys [(ingress, priority)] of every dummy rule the plan inserted. *)

val find_groups : Instance.t -> group list
(** Identical-signature rules across >= 2 policies (no cycle analysis). *)

val plan : Instance.t -> Instance.t * plan
(** Full pipeline: renumber priorities to make room for dummies (each
    priority is scaled by {!renumber_factor}), find groups, then break
    order cycles.  The returned instance is the one all later stages must
    use (it contains the renumbered policies and the dummies of the
    returned groups; a dummy whose group was abandoned is removed). *)

val renumber_factor : int

val order_graph_acyclic : Instance.t -> plan -> bool
(** Whether the entry-level order graph of the planned merging is
    acyclic — [plan] guarantees it; exposed for tests. *)
