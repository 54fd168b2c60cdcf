(** Seeded churn: a generator of plausible network events against a live
    {!Engine}.

    Each {!next} call inspects the engine's current state (active
    tenants, free hosts, dead infrastructure) and draws one event from a
    weighted mix — tenant arrivals with ClassBench-style policies and
    random shortest paths, re-routes, policy updates, departures,
    capacity shrinks and switch/link failures.  All draws come from one
    seeded {!Prng} stream, so a (seed, weights, engine) triple replays
    the same event sequence — the chaos benchmark and the determinism
    tests both rely on this.

    Generated events are {e plausible}, not guaranteed valid: the stream
    may occasionally ask for something the engine rejects (e.g. a link
    that just died); rejection reports are part of normal operation. *)

type weights = {
  install : int;
  reroute : int;
  update_policy : int;
  remove : int;
  capacity_shrink : int;
  switch_fail : int;
  link_fail : int;
}

val default_weights : weights
(** Arrival-heavy with a steady trickle of failures. *)

type t

val make : ?weights:weights -> ?rules:int -> seed:int -> unit -> t
(** [rules] is the per-policy rule count for generated tenants
    (default 6). *)

val capture : t -> string
(** The generator's full state (PRNG position included) as an opaque
    byte string — journaled runs log it alongside each event so a
    resumed run continues the {e same} stream. *)

val restore : string -> t
(** Inverse of {!capture}.  Only feed it strings produced by {!capture}
    (the crash-safe journal checksums them in transit); anything else is
    undefined behaviour, as with [Marshal]. *)

val next : t -> Engine.t -> Event.t
(** One event drawn against the engine's current state.  Falls back
    across categories when a draw is impossible (e.g. no active tenant
    to remove); always returns an event as long as the network has at
    least one host. *)

(** {2 Event builders}

    The draws {!next} makes, with the PRNG explicit, so the serving
    shard translates client ops into events with the same code.  [dead]
    lists the dead switches; a host is usable when its attachment switch
    is alive. *)

val free_hosts : Topo.Net.t -> dead:int list -> taken:int list -> int list
(** Usable hosts not in [taken]: where a new tenant may attach. *)

val fresh_paths :
  Prng.t -> Topo.Net.t -> dead:int list -> int -> Routing.Path.t list
(** One or two random shortest paths from ingress [i], each toward an
    egress drawn among the other usable hosts; unreachable draws are
    dropped, so the list may be empty. *)

val fresh_policy :
  Prng.t ->
  Topo.Net.t ->
  dead:int list ->
  int ->
  Routing.Path.t list ->
  rules:int ->
  Acl.Policy.t
(** A ClassBench-style policy of [rules] rules for ingress [i], aimed at
    the egresses of [paths] (at every usable egress when [paths] is
    empty). *)

val switch_victims : Topo.Net.t -> dead:int list -> int list
(** The live switches a failure may hit; empty once a quarter of the
    switches are dead. *)

val link_victims :
  Topo.Net.t -> dead:int list -> killed:(int * int) list -> (int * int) list
(** The live links, between live switches and not in [killed], a cut
    may hit; empty once a quarter of the links are in [killed]. *)

val shrink_pool : Topo.Net.t -> dead:int list -> int array -> int list
(** The live switches whose capacity (from the given array) is still
    positive. *)

val drive : t -> Engine.t -> int -> Report.t list
(** Generate-and-handle [n] events in sequence; the reports come back in
    event order. *)
