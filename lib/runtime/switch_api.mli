(** Fault-injectable per-switch table programming with bounded retry.

    This is the runtime's only write path to the data plane: single-entry
    install/delete operations against a live table array, each of which
    the {!Fault_plan} may reject or time out.  A failed operation is
    retried up to 4 times under exponential backoff with jitter: 0.01 s
    before the first retry, doubling after each, capped at 1 s, each
    delay scaled by a {!Fault_plan.jitter} draw.  Delays are
    {e simulated} — accumulated into {!stats}, never slept — so chaos
    runs stay fast and deterministic.  An operation that exhausts its
    retries reports failure to the caller, which is what triggers
    a wave rollback one layer up ({!Update.execute}).

    [force_set] and [restore] model a controller-driven full-table
    resync: they bypass fault injection entirely.  They are reserved for
    restoring a known-good snapshot (rollback's last resort) and for
    quarantine fencing, the two places where the runtime must win. *)

type stats = {
  mutable attempts : int;  (** operations sent, retries included *)
  mutable failures : int;  (** attempts the plan rejected *)
  mutable timeouts : int;  (** attempts the plan timed out *)
  mutable retries : int;  (** re-sends after a failed attempt *)
  mutable forced_resyncs : int;  (** [force_set] calls *)
  mutable backoff_s : float;  (** total simulated backoff delay *)
}

type t

val create : fault:Fault_plan.t -> Netsim.entry list array -> t
(** Wraps the given live tables; the array is owned by the API from then
    on and mutated in place. *)

val tables : t -> Netsim.entry list array
(** The live tables (the caller must not mutate them directly). *)

val snapshot : t -> Netsim.entry list array
(** Deep-enough copy: a fresh array of the per-switch entry lists. *)

val stats : t -> stats
(** This api instance's own tallies (the journal-persisted view).  The
    process-wide aggregate lives in the telemetry registry: the
    [sdnplace_switch_*_total] counters, and the forward backoff
    distribution in the [sdnplace_switch_op_backoff_seconds] histogram
    (rollback compensation's in
    [sdnplace_switch_rollback_backoff_seconds], so an aborted wave does
    not double-count its ops' backoff). *)

val compensating : t -> (unit -> 'a) -> 'a
(** Run [f] with this instance in compensation mode: operations still
    draw faults, retry, and tally into {!stats} exactly as usual, but
    their backoff is observed into the rollback histogram instead of
    [sdnplace_switch_op_backoff_seconds].  Wave rollback wraps its
    compensating installs/deletes in this. *)

val install : t -> switch:int -> Netsim.entry -> bool
(** Append the entry to the switch's table (retrying on faults); [false]
    when the operation ultimately failed. *)

val delete : t -> switch:int -> Netsim.entry -> bool
(** Remove the first structurally equal entry.  Deleting an absent entry
    succeeds without consuming a fault draw (idempotent delete). *)

val force_set : t -> switch:int -> Netsim.entry list -> unit
(** Controller resync: overwrite the switch's table, no faults. *)

val restore : t -> Netsim.entry list array -> unit
(** [force_set] every switch whose live table differs from the given
    tables (no fault draws are consumed).  Idempotent: restoring twice
    is a no-op, and restoring the tables the data plane already holds
    touches nothing.  Raises [Invalid_argument] on a switch count
    mismatch. *)
