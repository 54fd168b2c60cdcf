(** Incremental deployment (the paper's Section IV-E).

    Re-running the full ILP on every network change is too slow for
    online updates, so changes are handled by solving a sub-problem:
    every existing placement is frozen, the switches' capacities are
    reduced to what the frozen placement leaves free, and only the
    policies affected by the change are (re-)placed.  This is restrictive
    — a change that would require moving frozen rules is reported
    infeasible even though a from-scratch solve might succeed — which is
    exactly the trade-off the paper accepts for sub-second updates.

    Supported changes:
    - {!install}: new ingress policies join (tenant arrival);
    - {!reroute}: existing ingresses get new routing paths (the old
      placements of those ingresses are torn down first, freeing their
      slots);
    - {!remove}: policies leave; pure bookkeeping, always succeeds. *)

type result = {
  status : Encode.status;
  solution : Solution.t option;  (** combined placement: frozen + new *)
  sub_report : Solve.report option;  (** the sub-problem's solve report *)
}

val residual_capacities : Solution.t -> int array
(** Free TCAM slots per switch under a placement. *)

val install :
  ?options:Solve.options ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  base:Solution.t ->
  policies:(int * Acl.Policy.t) list ->
  paths:Routing.Path.t list ->
  unit ->
  result
(** Add new ingress policies with their routed paths.  The new ingresses
    must not already carry a policy.  Raises [Invalid_argument] if they
    do, or if a path references an unknown host/switch.

    [deadline] (an absolute [Unix.gettimeofday] instant) and [cancel]
    bound the sub-problem solve the same way {!Solve.run} is bounded:
    online updates are exactly where an unbounded stall is unacceptable
    (Section IV-E exists to make them sub-second), so the runtime hands
    each one a hard wall-clock budget.  A deadline hit reports
    [`Feasible] (best incumbent) or [`Unknown], never blocks. *)

val reroute :
  ?options:Solve.options ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  base:Solution.t ->
  ingresses:int list ->
  new_paths:Routing.Path.t list ->
  unit ->
  result
(** Replace the routing of the given ingresses: their old placements are
    removed, then their policies are placed against the new paths within
    the remaining free capacity. *)

val remove : base:Solution.t -> ingresses:int list -> Solution.t

val update_policy :
  ?options:Solve.options ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  base:Solution.t ->
  ingress:int ->
  policy:Acl.Policy.t ->
  unit ->
  result
(** Ingress-policy change (Section IV-E: rule addition, removal or
    modification): the ingress's old placement is torn down and the new
    policy is placed over its existing paths within the remaining free
    capacity.  The paper models rule modification exactly this way —
    deletion plus installation.  Raises [Invalid_argument] when the
    ingress carries no policy. *)
