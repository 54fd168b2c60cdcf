(** Abstract constraint structure of a placement instance.

    [build] walks the instance once and produces solver-agnostic variable
    and constraint descriptions; {!Encode} maps them to an ILP model
    (Section IV-A) and {!Sat_encode} to clauses and cardinality
    constraints (Section IV-D), so the two formulations are guaranteed to
    describe the same problem.

    Variables are dense integers [0 .. num_vars-1]:
    - a {b placement} variable per (policy rule, switch in [S_i]) for
      every rule that can need installing: DROP rules relevant to some
      path (all of them without slicing; with slicing only those whose
      field meets the path's flow region, Section IV-C), the PERMIT rules
      some placed DROP depends on, and merge-plan dummies;
    - a {b merged} variable per (merge group, switch) where at least two
      members have placement variables (Section IV-B).

    Numbering: free policies take consecutive ranges in ascending
    ingress order.  Within policy [i], each placed rule has a {e slot}
    [s] (its position in the policy's placed-rule order) and each switch
    of [S_i] its position [j] in ascending switch order; the rule's
    variable at that switch is [base_i + s * |S_i| + j], where [base_i]
    is the first variable of the policy.  Merged variables follow every
    placement variable, by group then ascending switch.  {!var} inverts
    this numbering and {!key} applies it, by binary search over the
    policies' bases: no array is kept per variable.

    {b Pinned policies.}  Policy [i] is pinned at switch [k0] when
    + one of its paths is the single switch [k0], and [k0] lies on
      every path of [i];
    + every placed drop applies to such a one-switch path (always
      unsliced; sliced, its field meets the path's flow);
    + no rule of [i] is a merge-group member (dummies are members);
    + monitors forbid no placed rule of [i] at [k0];
    + the rules of all policies pinned at [k0] fit [k0]'s capacity —
      otherwise nothing is pinned there.

    The one-switch paths force a copy of every placed drop at [k0], and
    Eq. 1 forces their permits there, so every feasible placement holds
    them.  One copy of each at [k0] already covers every path of [i] and
    meets every dependency, and no other placement of [i] enters another
    policy's rows, so with non-negative costs some optimum holds [i]'s
    rules at [k0] and nowhere else.  A pinned policy therefore takes no
    variables and gets no implication, cover or capacity rows; it is one
    entry of [pinned], and each assignment's placement
    ({!iter_placed}) holds its rules at [k0]. *)

type key =
  | Place of { ingress : int; priority : int; switch : int; hops : int }
      (** [hops]: the paper's loc(s, P_i), min hops from the ingress to
          [switch] over the policy's paths, so the upstream objective
          costs the variable [1 + hops] *)
  | Merged of { gid : int; switch : int }

type capacity = {
  switch : int;
  bound : int;
  plain : int list;  (** placement vars counted one slot each *)
  grouped : (int * int list) list;
      (** (merged var, member placement vars): members collectively count
          one slot when the merged var is set, else one each *)
}

type numbering
(** The dense index behind {!key}, {!var} and {!is_dummy}: per policy,
    by ascending ingress, its [base_i], [S_i] with each switch's loc,
    its placed priorities and rules and its pin switch, plus the merged
    variables' keys and the dummies.  Built once by {!build} and
    read-only afterwards, so a layout can be queried from several
    domains. *)

type t = {
  instance : Instance.t;
  plan : Merge.plan;
  sliced : bool;
  monitors : (int * Ternary.Field.t) list;
  numbering : numbering;
  implication_rows : int;
      (** the rows {!iter_implications} visits *)
  cover_rows : int;
      (** the rows {!iter_covers} visits *)
  cover_terms : int;
      (** the variables of those rows, repeats counted *)
  capacities : capacity list;
      (** Eq. 3, [bound] net of the rules pinned at the switch; only
          rows that can bind *)
  merge_defs : (int * int list) list;  (** merged var = AND members: Eqs. 4-5 / 8 *)
  baseline_rule_count : int;
      (** the paper's A: the rules the policies would install if every
          ingress switch had room for its whole required set (relevant
          DROPs + dependent PERMITs, once each; dummies excluded) *)
  forbidden : int list;
      (** placement variables fixed to 0 by monitoring constraints *)
  pinned : (int * int * int) list;
      (** (ingress, [k0], rule count) of each pinned policy, by
          ascending ingress *)
}

val build :
  ?sliced:bool ->
  ?plan:Merge.plan ->
  ?monitors:(int * Ternary.Field.t) list ->
  Instance.t ->
  t
(** [monitors] implements the paper's Section VII future-work constraint:
    a pair [(m, region)] declares that switch [m] runs monitoring rules
    for packets in [region], so no DROP rule overlapping [region] may be
    installed upstream of [m] on any path that traverses [m] (the packet
    must reach the monitor before the firewall can kill it).  The
    affected placement variables are fixed to 0. *)

val num_vars : t -> int

val key : t -> int -> key
(** What variable [v] stands for.  Raises [Invalid_argument] unless
    [0 <= v < num_vars t]. *)

val iter_placed :
  t -> bool array -> (int -> int -> Acl.Rule.t -> int -> unit) -> unit
(** [iter_placed t a f] calls [f v ingress rule switch] on each
    placement of assignment [a]: each set placement variable [v] and,
    with [v = -1], each pinned rule at its [k0], by ingress, then slot,
    then switch (the variables' order).  Merged variables are skipped. *)

val iter_pairs : t -> (int -> bool -> unit) -> unit
(** [iter_pairs t f] calls [f v held] on every (placed rule, switch of
    [S_i]) pair, pinned policies' included, in the same order: [v] is
    the pair's variable, or -1 in a pinned policy, where [held] tells
    whether the pair is the rule at [k0]. *)

val iter_implications : t -> (int -> int -> unit) -> unit
(** [iter_implications t f] calls [f d p] on each rule dependency row,
    in the order the encoders write them: drop variable [d] set needs
    permit variable [p] set.  Eq. 1 / 6, one row per (placed drop,
    permit it depends on, switch of [S_i]) of a free policy, the drop
    and the permit at the same switch.

    A free policy keeps its dependencies once, as (drop slot, permit
    slot) pairs, by placed drop (the relevant drops in policy order,
    then the dummy drops) and, within a drop, its permits by descending
    priority; a pair's rows are written out only when read.  Policies
    come last first; within a policy the pairs run backwards, and each
    pair's switch positions run backwards too. *)

val iter_covers : t -> (int -> int array -> unit) -> unit
(** [iter_covers t f] calls [f off js] on each cover row, in the order
    the encoders write them.  The row's variables are [off + js.(0)],
    [off + js.(1)], ... and each needs >= 1 of them set: Eq. 2 / 7, one
    row per (coverage drop, distinct path switch multiset) of a free
    policy.  Two paths have equal multisets when they hold the same
    switches with the same counts, in any order.  Sliced, a drop gets a
    multiset's row when its field meets the flow of some path with that
    multiset.

    A free policy keeps its rows per owning path: the positions [js] of
    the path's switches in [S_i], in path order, and the slots of the
    drops it owns a row for.  Unsliced, the first path of each multiset
    owns a row for every coverage drop, so all of a policy's owning
    paths share one slot array; sliced, each has its own.  [off] is
    the first variable of the drop's slot.  So a row is written out
    only when it is read, and [js] is shared by the drops of one path:
    [f] must not modify it.  Policies come last first; within a policy
    the paths and drops run backwards, and a (drop, multiset) row
    comes from the first path of that walk that meets the drop, so
    rows of different multisets can interleave. *)

val pinned_rules : t -> int
(** The rules the pinned policies hold: the entries every assignment
    places beyond its own variables. *)

val var : t -> ingress:int -> priority:int -> switch:int -> int option
(** The placement variable of that (policy rule, switch), [None] when
    the rule places nothing, the switch is outside [S_i], or the policy
    is pinned (its rules have no variables). *)

val is_dummy : t -> ingress:int -> priority:int -> bool
(** Whether that rule is a dummy the merge plan inserted. *)

val pp_stats : Format.formatter -> t -> unit
(** Variables, rows, and the pinned policies and their rules. *)
