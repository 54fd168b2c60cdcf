(** Parameterized benchmark instance families.

    One seeded recipe covers every experiment of the paper's Section V: a
    Fat-Tree topology, random shortest-path routing sprayed from a set of
    ingress hosts, ClassBench-style policies per ingress, an optional
    shared blacklist (the mergeable rules of Table II) and a uniform
    per-switch capacity.

    Determinism guarantees that make parameter sweeps clean:
    - routing and policy generation draw from independent streams of the
      same seed, so varying the path count does not perturb the policies;
    - paths are a prefix of a fixed 64-path universe, so sweeping [paths]
      compares nested path sets (as the paper's Figure 10 intends). *)

type ingress_mode =
  | Spread  (** one ingress per region of the host space (default) *)
  | Contiguous
      (** hosts 0..n-1: multiple policies share edge switches, which is
          what makes capacity pressure (and merging) bite — used by the
          Table II experiment *)

type family = {
  k : int;  (** fat-tree arity (even) *)
  num_policies : int;
  rules : int;  (** per-policy rule count (non-mergeable part) *)
  mergeable : int;  (** shared blacklist rules appended to every policy *)
  paths : int;  (** total routed paths *)
  capacity : int;  (** uniform per-switch ACL capacity *)
  seed : int;
  slice : bool;  (** attach per-egress flow regions to paths *)
  ingress_mode : ingress_mode;
}

val default : family
(** k=4, 8 policies, 20 rules, 64 paths, capacity 100, seed 1. *)

val build : family -> Placement.Instance.t
(** Raises [Invalid_argument] when {!validate} rejects the family. *)

val validate : family -> (unit, string) result
(** [Error] naming [paths] and [num_policies] when [paths] is below the
    number of policy ingresses ({!ingresses}): every ingress needs a
    path of its own. *)

val ingresses : Topo.Net.t -> ingress_mode -> int -> int list
(** The ingress hosts a family with this mode and policy count uses. *)

(** {2 Named seed substreams}

    Every purpose draws from an independent stream of the family seed,
    so consuming one stream never perturbs another.  [build] uses the
    routing and policy streams. *)

val routing_stream : family -> Prng.t

val policy_stream : family -> Prng.t
