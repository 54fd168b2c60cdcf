(** Counting admission slots with a per-key fairness cap — the bulkhead
    primitive under the serving layer.

    A pool holds [slots] global units of concurrent work and refuses to
    let any single key (a tenant, say) hold more than [per_key_cap] of
    them, so one flooding key can saturate its own bulkhead but never
    starve the others.  Purely a counter — it never blocks, spawns, or
    queues; callers that are refused a slot retry on their next
    scheduling round.  Safe under concurrent domains. *)
type t

val create : slots:int -> per_key_cap:int -> t
(** Raises [Invalid_argument] unless both bounds are >= 1. *)

val try_acquire : t -> key:int -> bool
(** Take one slot for [key]; [false] (and no state change) when the
    pool is full or the key is at its cap. *)

val release : t -> key:int -> unit
(** Return one of [key]'s slots.  Raises [Invalid_argument] if the key
    holds none — a release/acquire pairing bug, not a runtime
    condition. *)

val reset : t -> unit
(** Drop every held slot (used when a drain abandons in-flight work). *)

val in_flight : t -> int

val key_in_flight : t -> key:int -> int

val slots : t -> int
