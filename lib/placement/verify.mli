(** Placement correctness checking.

    Two independent layers:

    - {b structural}: the invariants the encoding promises — per-switch
      capacity, per-path coverage of every relevant DROP rule, and
      co-location of every installed DROP's higher-priority overlapping
      PERMITs (the conditions under which distributed first-match
      semantics provably equals the big-switch policy);
    - {b semantic}: black-box equivalence — install the tables in the
      {!Netsim} data plane, inject probe packets (one per rule region,
      one per pairwise overlap, plus random traffic) along every routed
      path and compare the outcome with the big-switch policy verdict.

    A correct solver output passes both; the test suite runs them on
    every randomly generated instance. *)

type violation =
  | Capacity of { switch : int; used : int; bound : int }
  | Monitor of { ingress : int; priority : int; switch : int }
      (** a DROP overlapping a monitored region sits upstream of its
          monitor (Section VII constraint) *)
  | Coverage of { ingress : int; priority : int; egress : int }
      (** DROP rule not present on some path toward [egress] *)
  | Dependency of { ingress : int; drop : int; permit : int; switch : int }
      (** installed drop missing its permit at the same switch *)
  | Semantic of {
      ingress : int;
      egress : int;
      packet : Ternary.Packet.t;
      expected : Acl.Rule.action;
      got : Netsim.outcome;
    }

val structural : Layout.t -> Solution.t -> violation list

val structural_plain : ?only:(int -> bool) -> Solution.t -> violation list
(** [structural (Layout.build ~sliced:sol.sliced sol.instance) sol]
    without building the layout: with no merge plan and no monitors no
    rule is a dummy and no placement is forbidden.  Runtime placements
    are checked this way.  [only] picks the ingresses whose policies are
    checked for coverage and dependencies (default all): the result is
    the full check's violations of those ingresses, plus every
    {!Capacity} violation, since capacity is always checked over the
    whole network. *)

val semantic :
  ?random_samples:int ->
  ?only:(int -> bool) ->
  ?tables:Netsim.entry list array ->
  Prng.t ->
  Solution.t ->
  violation list
(** [random_samples] extra uniform packets per path (default 20) on top
    of the per-rule and per-overlap probes.  [only] picks the ingresses
    whose policies are probed (default all); no packet is drawn for the
    others, so without [only] the packets and their order are those of
    {!check}.
    [tables] are the solution's {!Tables.of_solution} tables when the
    caller already has them; they are built here otherwise. *)

val check : ?random_samples:int -> Prng.t -> Layout.t -> Solution.t -> violation list
(** Structural then semantic. *)

val exact : Solution.t -> violation list option
(** Sampling-free equivalence proof via {!Ternary.Cube} region algebra:
    for every policy and every routed path, the region of packets the
    installed tables drop along the path (union of per-switch first-match
    drop regions for that ingress tag, restricted to the path's flow when
    sliced) must equal the big-switch policy's exact drop region.  An
    empty list is a {e proof} of semantic correctness on all 2^104
    packets of every path; any difference yields a concrete witness
    packet.  [None] when the cube budget ({!Ternary.Cube.subtract}'s
    default, 100_000) is exceeded —
    fall back to {!semantic} sampling then. *)

val pp_violation : Format.formatter -> violation -> unit
