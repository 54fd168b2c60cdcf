(** Immutable sparse matrix stored in both compressed-sparse-column and
    compressed-sparse-row form.

    The revised simplex needs both orientations of the constraint matrix:
    columns for FTRAN right-hand sides and basis extraction, rows for
    forming the pivot row [rho^T A] from a sparse BTRAN result.  Building
    both once up front costs one extra copy of the nonzeros and makes
    every hot-loop access a contiguous array scan. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  colptr : int array;  (** length n+1 *)
  rowind : int array;
  cval : float array;
  rowptr : int array;  (** length m+1 *)
  colind : int array;
  rval : float array;
}

type row = { idx : int array; coef : float array }
(** A packed sparse row, the one row format every layer from the ILP
    model to the LP shares: [idx] strictly increasing, every [coef]
    nonzero, both arrays the same length.  Rows are immutable by
    convention, so layers pass (and share) them without copying. *)

val pack : int array -> float array -> row
(** [pack idx coef] packs unordered terms: sorts them by index (stably),
    sums the coefficients of a repeated index in input order and drops
    the terms that come out zero.  Takes ownership of both arrays and
    returns them unchanged when they are already packed.  Raises
    [Invalid_argument] when the lengths differ. *)

val of_rows : ?units:int -> m:int -> n:int -> row array -> t
(** [of_rows ~m ~n rows] builds the [m x n] matrix from [m] packed rows
    in one linear scatter per row (no sorting or merging).  With
    [~units:u] (default 0) each row [i] also gets a [1.0] in column
    [n + k*m + i] for every [k < u], so the matrix has [n + u*m] columns:
    the slack and artificial blocks of the revised simplex.  Raises
    [Invalid_argument] on a column index outside [0, n) or a row that
    is not packed. *)

val nnz : t -> int

val col_iter : t -> int -> (int -> float -> unit) -> unit
(** [col_iter a j f] applies [f row value] to every stored entry of
    column [j]. *)

val row_iter : t -> int -> (int -> float -> unit) -> unit
(** [row_iter a i f] applies [f col value] to every stored entry of row
    [i]. *)

val col_dot : t -> int -> float array -> float
(** [col_dot a j y] is the dot product of column [j] with the dense
    vector [y] (length [m]). *)
