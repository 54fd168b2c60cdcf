(** A rule-placement problem instance — the triple (N, P, Q) of the
    paper's Section III: a topology with per-switch capacities, a routing
    (paths per ingress), and one prioritized ACL policy per ingress. *)

type t = private {
  net : Topo.Net.t;
  routing : Routing.Table.t;
  policies : (int * Acl.Policy.t) list;  (** (ingress host, policy), sorted *)
  capacities : int array;  (** TCAM slots available for ACL per switch *)
}

val edit :
  ?drop:int list ->
  ?policies:(int * Acl.Policy.t) list ->
  ?paths:Routing.Path.t list ->
  ?capacities:int array ->
  t ->
  t
(** [edit ~drop ~policies ~paths ~capacities t] removes the policies and
    the routing rows of the ingresses in [drop], then adds [policies] and
    appends [paths] to their ingresses' rows ({!Routing.Table.edit}), and
    replaces the capacity array if one is given.  Policies stay sorted by
    ingress.  Every untouched routing row and policy, and the capacity
    array unless replaced, is shared with [t], so an event's edit does
    no per-path work outside what it changes.

    Only what the edit adds is validated, raising [Invalid_argument]:
    new capacities are one per switch and none negative; an added path's
    ingress is a host and its switches are in range; an added policy's
    ingress is a host with a path in the edited routing, and no other
    policy, kept or added, has the same ingress. *)

val empty : Topo.Net.t -> t
(** No policy, no path, and zero capacity on every switch. *)

val make :
  net:Topo.Net.t ->
  routing:Routing.Table.t ->
  policies:(int * Acl.Policy.t) list ->
  capacities:int array ->
  t
(** The {!edit} of [empty net] that adds every path of [routing],
    [policies] and [capacities], so it validates what {!edit} does: one
    capacity per switch, capacities nonnegative, no duplicate ingress,
    every policy's ingress a host with at least one path, every path's
    ingress a host and its switches in range. *)

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
