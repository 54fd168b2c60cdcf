(** Incremental deployment (the paper's Section IV-E).

    Re-running the full ILP on every network change is too slow for
    online updates, so changes are handled by solving a sub-problem:
    every existing placement is frozen, the switches' capacities are
    reduced to what the frozen placement leaves free, and only the
    policies affected by the change are (re-)placed.  This is restrictive
    — a change that would require moving frozen rules is reported
    infeasible even though a from-scratch solve might succeed — which is
    exactly the trade-off the paper accepts for sub-second updates.

    Two operations cover every change:
    - {!install}: new ingress policies join (tenant arrival);
    - {!remove}: policies leave; pure bookkeeping, always succeeds.

    Every other change is a teardown plus an install, as the paper
    models rule modification: a re-route is
    [install ~base:(remove ~base ~ingresses)] with the ingresses' own
    policies over their new paths, and a policy update the same with
    the new policy over the ingress's existing paths.  The routing table
    is keyed by ingress, so the order of the paths changes nothing. *)

type result = {
  status : Encode.status;
  solution : Solution.t option;  (** combined placement: frozen + new *)
}

val residual_capacities : Solution.t -> int array
(** Free TCAM slots per switch under a placement. *)

val install :
  ?options:Solve.options ->
  ?deadline:float ->
  base:Solution.t ->
  policies:(int * Acl.Policy.t) list ->
  paths:Routing.Path.t list ->
  unit ->
  result
(** Add new ingress policies with their routed paths.  The new ingresses
    must not already carry a policy.  Raises [Invalid_argument] if they
    do, or if a path references an unknown host/switch.

    [deadline] (an absolute [Unix.gettimeofday] instant) bounds the
    sub-problem solve the same way it bounds {!Solve.run}:
    online updates are exactly where an unbounded stall is unacceptable
    (Section IV-E exists to make them sub-second), so the runtime hands
    each one a hard wall-clock budget.  A deadline hit reports
    [`Feasible] (best incumbent) or [`Unknown], never blocks. *)

val remove : base:Solution.t -> ingresses:int list -> Solution.t
(** Tear down the placements of [ingresses] and drop their policies and
    paths from the instance. *)
