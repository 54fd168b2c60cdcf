(** A rule-placement problem instance — the triple (N, P, Q) of the
    paper's Section III: a topology with per-switch capacities, a routing
    (paths per ingress), and one prioritized ACL policy per ingress. *)

type t = private {
  net : Topo.Net.t;
  routing : Routing.Table.t;
  policies : (int * Acl.Policy.t) list;  (** (ingress host, policy), sorted *)
  capacities : int array;  (** TCAM slots available for ACL per switch *)
}

val make :
  net:Topo.Net.t ->
  routing:Routing.Table.t ->
  policies:(int * Acl.Policy.t) list ->
  capacities:int array ->
  t
(** Validates: one capacity per switch, capacities nonnegative, no
    duplicate ingress, every policy's ingress has at least one path, every
    path's ingress is a known host.  Raises [Invalid_argument]. *)

val uniform_capacity : Topo.Net.t -> int -> int array

val policy_of : t -> int -> Acl.Policy.t option

val ingresses : t -> int list
(** Ingresses that carry a policy. *)

val total_policy_rules : t -> int
(** The paper's [A]: rules summed over all policies (the network-wide
    rule count if everything fitted at the ingresses). *)

val map_policies : t -> (int -> Acl.Policy.t -> Acl.Policy.t) -> t
(** Rewrite every policy (used by redundancy removal and by merge-cycle
    breaking, which inserts dummy rules). *)

val pp : Format.formatter -> t -> unit
