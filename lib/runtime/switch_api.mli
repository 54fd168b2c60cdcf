(** Fault-injectable per-switch table programming with bounded retry.

    This is the runtime's only write path to the data plane: single-entry
    install/delete operations against a live table array, each of which
    the {!Fault_plan} may reject or time out.  A failed operation is
    retried up to [max_retries] times under exponential backoff with
    jitter (delays are {e simulated} — accumulated into {!stats}, never
    slept — so chaos runs stay fast and deterministic); an operation
    that exhausts its retries reports failure to the caller, which is
    what triggers transactional rollback one layer up.

    [force_set] models a controller-driven full-table resync: it bypasses
    fault injection entirely.  It is reserved for restoring a known-good
    snapshot (rollback's last resort) and for quarantine fencing, the
    two places where the runtime must win. *)

type config = {
  max_retries : int;  (** retries beyond the first attempt (default 4) *)
  base_backoff_s : float;  (** first retry delay (default 0.01) *)
  max_backoff_s : float;  (** per-retry backoff ceiling (default 1.0) *)
  max_total_backoff_s : float;
      (** cap on the {e accumulated} simulated backoff of one operation
          (default 60.0): however large [max_retries] is, a single
          operation's accounted delay can neither exceed this budget nor
          overflow the float accounting *)
}

val default_config : config

type stats = {
  mutable attempts : int;  (** operations sent, retries included *)
  mutable failures : int;  (** attempts the plan rejected *)
  mutable timeouts : int;  (** attempts the plan timed out *)
  mutable retries : int;  (** re-sends after a failed attempt *)
  mutable gave_up : int;  (** operations that exhausted their retries *)
  mutable forced_resyncs : int;  (** [force_set] calls *)
  mutable backoff_s : float;  (** total simulated backoff delay *)
  mutable last_op_backoff_s : float;
      (** simulated backoff of the most recent operation (clamped to
          [max_total_backoff_s]) *)
  mutable max_op_backoff_s : float;
      (** worst single-operation backoff seen so far *)
}

type t

val create : ?config:config -> fault:Fault_plan.t -> Netsim.entry list array -> t
(** Wraps the given live tables; the array is owned by the API from then
    on and mutated in place. *)

val tables : t -> Netsim.entry list array
(** The live tables (the caller must not mutate them directly). *)

val snapshot : t -> Netsim.entry list array
(** Deep-enough copy: a fresh array of the per-switch entry lists. *)

val stats : t -> stats
(** This api instance's own tallies (the journal-persisted view). *)

val global_stats : unit -> stats
(** Process-wide aggregate across every api instance, read back from the
    telemetry registry (zeros while telemetry is disabled).  The
    [last_op_backoff_s] / [max_op_backoff_s] fields are per-instance
    notions and read 0 in this view; the backoff distribution lives in
    the [sdnplace_switch_op_backoff_seconds] histogram.  [backoff_s]
    (that histogram's sum) counts {e forward} operations only —
    rollback-compensation backoff is accounted separately in
    [sdnplace_switch_rollback_backoff_seconds], so an aborted wave or
    transaction does not double-count its ops' backoff here. *)

val compensating : t -> (unit -> 'a) -> 'a
(** Run [f] with this instance in compensation mode: operations still
    draw faults, retry, and tally into {!stats} exactly as usual, but
    their backoff is observed into the rollback histogram instead of
    [sdnplace_switch_op_backoff_seconds].  Wave and transaction rollback
    wrap their compensating installs/deletes in this. *)

val install : t -> switch:int -> Netsim.entry -> bool
(** Append the entry to the switch's table (retrying on faults); [false]
    when the operation ultimately failed. *)

val delete : t -> switch:int -> Netsim.entry -> bool
(** Remove the first structurally equal entry.  Deleting an absent entry
    succeeds without consuming a fault draw (idempotent delete). *)

val force_set : t -> switch:int -> Netsim.entry list -> unit
(** Controller resync: overwrite the switch's table, no faults. *)
