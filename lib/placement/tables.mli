(** Final per-switch table construction (the paper's Section IV-A5).

    Each cell of a solution becomes one TCAM entry tagged with its ingress
    policies.  Entries within a switch must be ordered so that, for every
    policy, overlapping rules with different actions keep their policy
    order; rules from different policies never interact (disjoint tags)
    except through merged entries, whose order constraints the merge plan
    made acyclic.  The order is produced by a topological sort of the
    order-sensitive pairs; should a cycle still arise (it cannot for
    plans produced by {!Merge.plan}, but tables can be built for arbitrary
    solutions), the offending merged entry is split back into per-policy
    entries, which always resolves, and the split is reported. *)

type build = {
  tables : Netsim.entry list array;
      (** one table per switch, in match order; a fresh array the caller
          owns *)
  splits : int;
      (** merged entries that had to be split to order the rebuilt
          switches' tables *)
  rebuilt : int list;  (** the switches ordered afresh, ascending *)
}

val of_solution : Solution.t -> build
(** Orders every switch: [rebuilt] lists them all. *)

val patch :
  cells:Solution.cell list array ->
  tables:Netsim.entry list array ->
  Solution.t ->
  build
(** [patch ~cells ~tables sol] builds [sol]'s tables from an earlier
    build: [cells] are an earlier solution's [per_switch] and [tables]
    the tables built from them.  A switch whose cell list equals its
    entry in [cells] takes its table from [tables], physically shared;
    every other switch is ordered afresh and listed in [rebuilt].  The
    tables equal [(of_solution sol).tables] entry for entry, in the same
    order; so a caller that diffs the result against [tables] can skip
    the shared lists by [!=].  Arrays of another length than [sol]'s
    reuse nothing ([of_solution] is [patch] from empty arrays). *)
