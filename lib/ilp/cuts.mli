(** Cutting-plane separation for 0-1 placement models.

    Cuts are derived from model rows only — never from branch-local
    bound changes — so every returned inequality is valid for the whole
    0-1 feasible set and may stay in the LP across the entire tree.
    Rows carry no structural tag; each family recognises the rows it
    works on from their coefficients.  Two families are separated:

    - {b implication-lifted knapsack cover cuts} from capacity-shaped
      [<=] rows, where an item's weight is augmented by the weights of
      same-row permits its dependency arcs (Eq. 1) force in with it; a
      set [D] of items whose lifted weights exceed the capacity yields
      [Σ_D x <= |D| - 1] (complemented literals for negative
      coefficients);
    - {b Chvátal-Gomory pigeonhole cuts} over connected components of
      unit covering rows: [t] rows with maximum variable multiplicity
      [λ] imply [Σ x >= ceil(t/λ)] over the component's variables. *)

type cut = { terms : Simplex.Csc.row; sense : Model.sense; rhs : float }
(** Packed terms over the structural variables of the model the
    separator was prepared on.  Packing makes the representation
    canonical, so structural equality is cut identity (the solver pools
    cuts on it). *)

type t
(** Separation context: the capacity/dependency/cover structure
    extracted once per model. *)

val prepare : Model.t -> t

val separate : t -> float array -> cut list
(** [separate t x] returns cuts violated by the fractional point [x]
    (most violated first, at most 32).  Deterministic
    for a fixed model and point. *)

val check : cut -> bool array -> bool
(** [check c sol] — does the 0-1 point satisfy the cut?  Used by tests
    to verify that no integer-feasible point is ever cut off. *)

