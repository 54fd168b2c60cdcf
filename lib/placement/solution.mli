(** Decoded placements: which rule sits on which switch, with merging.

    A {!cell} is one TCAM entry: a matching field + action installed at a
    switch, applying to one ingress policy (plain placement) or to several
    (merged entry, Section IV-B).  Tags identify the (ingress, priority)
    of the member rule in each policy, which is what coverage and
    dependency checking need. *)

type cell = {
  rule : Acl.Rule.t;  (** field/action; priority of the representative *)
  tags : (int * int) list;  (** (ingress, priority in that policy) *)
}

type t = {
  instance : Instance.t;
  sliced : bool;
  per_switch : cell list array;
  baseline_rule_count : int;
      (** the paper's A: single-copy rule count (see {!Layout}) *)
  objective : float;  (** solver objective value *)
}

val of_assignment : Layout.t -> bool array -> objective:float -> t
(** Interprets a satisfying assignment of the layout's variables: true
    placement variables and the pinned policies' rules
    ({!Layout.iter_placed}) become cells; an active merged variable
    collapses its member placements into one multi-tag cell. *)

val empty : Instance.t -> t
(** No rules installed anywhere (valid when there are no DROP rules). *)

val total_entries : t -> int
(** The paper's B: TCAM entries actually installed (merged entries count
    once). *)

val switch_usage : t -> int array

val overhead_pct : t -> float
(** The paper's duplication overhead (B - A) / A in percent (Table II);
    negative when merging beats the single-copy baseline. *)

val tcam_slots : t -> int
(** Physical TCAM slot estimate: the placement model counts one slot per
    cell (the paper's convention), but a real TCAM expands port ranges
    into prefix covers and a merged entry's tag set into ternary tag
    patterns.  Each cell costs
    [Field.tcam_entries x Tag_cover.patterns(tags)], the tag patterns
    taken over the width needed for the instance's host count. *)

val is_placed : t -> ingress:int -> priority:int -> switch:int -> bool
(** A scan of the switch's cells and of each cell's tags: linear in the
    tags installed at [switch].  A caller asking many times indexes the
    cells once instead, as {!Verify.structural} does. *)

val merged_cells : t -> (int * cell) list
(** (switch, cell) for every multi-tag cell. *)

val strip_ingresses : t -> int list -> t
(** Remove the given ingresses' tags everywhere; cells left with no tag
    disappear (their slots are freed).  Used when policies are removed or
    re-routed (Section IV-E). *)

val pp_summary : Format.formatter -> t -> unit
