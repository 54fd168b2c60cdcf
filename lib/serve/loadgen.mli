(** Seeded request generator for the daemon: the bench's and the
    property tests' synthetic tenant population.

    Deterministic — equal seeds generate equal request sequences — and
    deliberately adversarial: one {e flooder} tenant is drawn far more
    often than its peers (to exercise the per-tenant bulkhead) and a
    configurable fraction of requests are chaos ops (to exercise the
    degradation ladder and the circuit breaker). *)

type weights = {
  connect : int;
  flow : int;
  update : int;
  disconnect : int;
  chaos : int;
}

val default_weights : weights
(** connect 3, flow 6, update 3, disconnect 1, chaos 1. *)

type t

val make :
  ?weights:weights ->
  ?tenants:int ->
  ?flood_bias:int ->
  seed:int ->
  unit ->
  t
(** [tenants] is the id space (default 8); tenant 0, the flooder,
    is drawn with an extra [flood_bias]-in-[flood_bias+1] chance
    (default 2). *)

val next : t -> Wire.request
(** The next [Submit] request. *)
