(** Synthetic firewall policy generation, in the spirit of ClassBench
    (Taylor & Turner, INFOCOM 2005).

    The paper generates each ingress policy with ClassBench.  This module
    reproduces the statistical features that matter to rule placement:

    - {b prefix nesting}: source/destination prefixes are drawn from pools
      grown by random sub-prefix refinement, so rules overlap and nest the
      way real classifiers do — that nesting is exactly what creates
      permit-drop dependencies;
    - {b skewed port usage}: ports are mostly wildcards, well-known single
      ports, or short ranges (ranges cost several TCAM slots when
      expanded);
    - {b protocol mix}: TCP-heavy with UDP/ICMP/any minorities;
    - {b action mix}: 45% DROP.

    All generation is deterministic in the supplied {!Prng.t}. *)

val policy :
  ?egress_prefixes:Ternary.Prefix.t list ->
  Prng.t ->
  num_rules:int ->
  Acl.Policy.t
(** A fresh policy of [num_rules] rules with priorities [num_rules .. 1].
    [egress_prefixes] seeds the destination pool (pass the /24s of the
    hosts this ingress actually routes to). *)

val policy_for_ingress :
  Prng.t ->
  net:Topo.Net.t ->
  egresses:int list ->
  num_rules:int ->
  Acl.Policy.t
(** {!policy} with the destination pool seeded from the egress hosts'
    prefixes in [net]. *)

val blacklist : Prng.t -> num:int -> Ternary.Field.t list
(** Network-wide blacklist fields (source prefixes outside the tenant
    space, action DROP when installed): the "mergeable" rules of the
    paper's Section IV-B — identical in every policy they are added to. *)

val with_blacklist : Acl.Policy.t -> Ternary.Field.t list -> Acl.Policy.t
(** Prepends the blacklist as top-priority DROP rules, preserving the
    relative order of existing rules. *)
