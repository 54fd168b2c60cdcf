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

    Numbering: policies take consecutive ranges in ascending ingress
    order.  Within policy [i], each placed rule has a {e slot} [s] (its
    position in the policy's placed-rule order) and each switch of [S_i]
    its position [j] in ascending switch order; the rule's variable at
    that switch is [base_i + s * |S_i| + j], where [base_i] is the first
    variable of the policy.  Merged variables follow every placement
    variable, by group then ascending switch.  {!var} inverts this
    numbering.

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
    Eq. 1 forces their permits there, so those variables are 1 in every
    feasible placement.  One copy of each at [k0] already covers every
    path of [i] and meets every dependency, and no other variable of
    [i] enters another policy's rows, so with non-negative costs some
    optimum sets the rest of [i]'s variables to 0.  A pinned policy
    keeps its keys, numbering and weights but gets no implication or
    cover rows and no capacity terms; its variables are fixed in
    [pins]. *)

type key =
  | Place of { ingress : int; priority : int; switch : int }
  | Merged of { gid : int; switch : int }

type capacity = {
  switch : int;
  bound : int;
  plain : int list;  (** placement vars counted one slot each *)
  grouped : (int * int list) list;
      (** (merged var, member placement vars): members collectively count
          one slot when the merged var is set, else one each *)
}

type pin =
  | Free  (** left to the solver *)
  | Zero  (** pinned to 0 *)
  | One  (** pinned to 1 *)

type numbering
(** The dense index behind {!var}, {!is_dummy} and {!is_forbidden}:
    per ingress, its [base_i], [S_i] and placed priorities, plus a
    forbidden flag per variable.  Built once by {!build} and read-only
    afterwards, so a layout can be queried from several domains. *)

type t = {
  instance : Instance.t;
  plan : Merge.plan;
  sliced : bool;
  monitors : (int * Ternary.Field.t) list;
  keys : key array;
  numbering : numbering;  (** inverse of [keys] *)
  rules : (int * int, Acl.Rule.t) Hashtbl.t;  (** (ingress, priority) -> rule *)
  implications : (int * int) list;
      (** (drop var, permit var): Eq. 1 / 6, free policies only *)
  covers : int list list;
      (** each needs >= 1: Eq. 2 / 7, per (coverage drop, distinct path
          switch set) of a free policy, so no two are equal as sets.
          Sliced, a drop gets a set's row when its field meets the flow
          of some path with that switch set. *)
  capacities : capacity list;
      (** Eq. 3 over [Free] variables, [bound] net of the load pinned at
          the switch; only rows that can bind *)
  merge_defs : (int * int list) list;  (** merged var = AND members: Eqs. 4-5 / 8 *)
  weights : float array;
      (** per var: 1 + hops from ingress (the paper's loc function), used
          by the upstream objective; merged vars carry the max member
          weight *)
  baseline_rule_count : int;
      (** the paper's A: the rules the policies would install if every
          ingress switch had room for its whole required set (relevant
          DROPs + dependent PERMITs, once each; dummies excluded) *)
  forbidden : int list;
      (** placement variables fixed to 0 by monitoring constraints
          (pinned policies' included) *)
  pins : pin array;
      (** per var: [One] exactly at the placed rules of a pinned policy
          at its [k0], [Zero] at its other variables, else [Free] *)
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
    affected placement variables are pinned to 0. *)

val num_vars : t -> int

val var : t -> ingress:int -> priority:int -> switch:int -> int option
(** The placement variable of that (policy rule, switch), [None] when
    the rule places nothing or the switch is outside [S_i]. *)

val is_dummy : t -> ingress:int -> priority:int -> bool
(** Whether that rule is a dummy the merge plan inserted. *)

val is_forbidden : t -> ingress:int -> priority:int -> switch:int -> bool
(** Whether monitoring pins that placement to 0. *)

val pp_stats : Format.formatter -> t -> unit
(** Variables, rows, and the pinned policies and variables. *)
