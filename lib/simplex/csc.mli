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
  colind : int array;  (** past [rowptr.(m)]: spare room, never read *)
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

val pack_into : int array -> float array -> int -> int -> int
(** [pack_into idx coef pos len] packs the [len] terms from [pos] in
    place, as {!pack} does, and returns how many it kept: the packed
    row is the [kept] terms from [pos]. *)

val of_csr : m:int -> n:int -> int array -> int array -> float array -> t
(** [of_csr ~m ~n rowptr colind rval] is the [m x n] matrix whose row
    [i] is the packed terms [colind]/[rval] from [rowptr.(i)] to
    [rowptr.(i+1) - 1].  It takes the three arrays as they are (no
    copy; entries of [colind] and [rval] past [rowptr.(m)] are spare
    room it never reads) and adds the CSC in one counting pass and one
    scatter.  Raises [Invalid_argument] on a [rowptr] that is not
    [m + 1] long, entry arrays shorter than [rowptr.(m)], a row that is
    not packed or a column index outside [0, n). *)

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
