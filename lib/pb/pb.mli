(** Pseudo-Boolean constraint layer over the {!Cdcl} solver.

    The paper's satisfiability formulation (Section IV-D) needs exactly:
    clauses (Eqs. 6-7), at-most-k capacity constraints (Eq. 3 with binary
    variables), and AND-definitions for merged rules (Eq. 8).  This module
    provides those, with two interchangeable treatments of cardinality:

    - [`Native]: the solver's counter propagation (default — no auxiliary
      variables);
    - [`Sequential]: Sinz's LTSeq sequential-counter CNF encoding
      (O(n·k) auxiliary variables and clauses), kept both as a
      cross-check of the native propagator and as the faithful "encode
      for a stock SAT solver" pipeline.

    Literals are DIMACS integers from {!fresh}. *)

type t

type encoding = [ `Native | `Sequential ]

val create : ?encoding:encoding -> unit -> t

val fresh : t -> int
(** New problem variable. *)

val fresh_aux : t -> int
(** New auxiliary variable, for encodings layered on top of this
    module. *)

val add_clause : t -> int list -> unit

val at_most : t -> int list -> int -> unit
(** At most [k] of the literals true. *)

val and_eq : t -> int -> int list -> unit
(** [and_eq t v lits] asserts [v <-> (l1 && ... && ln)] — the merged-rule
    definition of the paper's Eq. 8. *)

val implies : t -> int -> int -> unit
(** [implies t a b] asserts [a -> b] (Eq. 6 shape). *)

val solve : ?conflict_limit:int -> ?cancel:(unit -> bool) -> t -> Cdcl.result
(** The model array covers problem variables first, then auxiliaries.
    [cancel] stops the underlying CDCL search cooperatively (see
    {!Cdcl.solve}). *)

val num_conflicts : t -> int
