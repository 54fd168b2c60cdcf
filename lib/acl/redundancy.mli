(** Redundant-rule elimination (the optional first stage of the paper's
    Fig. 4 pipeline, after Liu et al.'s upward/downward redundancy).

    Three sound, semantics-preserving eliminations are applied to fixpoint:

    - {b shadowed} rules: a rule fully contained in a single strictly
      higher-priority rule can never be the first match;
    - {b downward-redundant} rules: a rule whose field is contained in a
      lower-priority rule with the same action, with every intervening
      overlapping rule also of the same action, decides nothing;
    - {b default-redundant} permits: a PERMIT with no lower-priority
      overlapping DROP decides nothing (the policy default is permit).

    These are the pairwise (single-witness) variants of complete
    redundancy removal: sound always, complete on laminar rule sets. *)

type report = {
  shadowed : int;
  downward : int;
  default_permit : int;
}

val remove : Policy.t -> Policy.t * report
(** Iterates the three eliminations until no rule is removed.  The result
    is semantically equal to the input on every packet. *)
