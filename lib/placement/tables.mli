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
  splits : int;  (** merged entries that had to be split to order tables *)
}

val of_solution : Solution.t -> build
