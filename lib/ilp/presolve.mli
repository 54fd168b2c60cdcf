(** Root presolve for 0-1 models.

    [reduce] applies optimality-preserving reductions — bound
    propagation to a fixpoint, removal of activity-redundant rows and of
    exact duplicate rows (same sense and terms; the tightest rhs is
    kept), and dominated-column fixing — and returns a smaller model
    together with the bookkeeping needed to translate solutions back.  Every reduction keeps at least one
    optimal solution of the original model, so solving the reduced model
    and applying {!restore} yields an optimal original solution (with
    objective shifted by [obj_offset]). *)

type t = private {
  reduced : Model.t;  (** the shrunken model *)
  keep : int array;  (** reduced variable index -> original index *)
  fixed : int array;  (** original index -> -1 (free), 0 or 1 *)
  obj_offset : float;
      (** objective contribution of variables fixed to 1; add to the
          reduced model's objective value to recover the original one *)
  orig_vars : int;
  rows_dropped : int;
  vars_fixed : int;
}

type outcome = Reduced of t | Infeasible

val reduce : Model.t -> outcome
(** Returns [Infeasible] when propagation proves the model empty. *)

val restore : t -> bool array -> bool array
(** Lift a reduced-model solution to the original variable space. *)

val project : t -> bool array -> bool array
(** Project an original-space point (e.g. a warm start) onto the
    reduced variables.  The result is only a heuristic hint: it may be
    infeasible for the reduced model if the point disagrees with a
    dominance fixing, so callers must re-verify it. *)
