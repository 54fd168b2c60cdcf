(** Two-phase table updates with rollback.

    Moving the data plane from its current tables to a target is done
    add-before-delete: phase one installs every entry the target adds,
    phase two deletes every entry it drops.  Between the phases the
    tables hold a superset of both placements, so no packet a correct
    placement would drop can slip through mid-transition (transient
    extra drops of the outgoing placement are the safe direction for a
    firewall).  On commit each touched switch's table is set to the
    exact target order — the per-entry operations decide {e admission},
    the final write fixes {e priority order}, mirroring how a
    controller rewrites TCAM priorities after the content settles.

    If any operation exhausts its retries the transaction rolls back:
    compensating deletes/installs undo the applied operations (these
    also run through the fault-injected API — a rollback may itself
    struggle), and any switch whose compensation fails is force-resynced
    from the pre-transaction snapshot.  Either way the tables end
    byte-identical to their pre-transaction state. *)

type outcome =
  | Committed
  | Rolled_back of { switch : int; op : string }
      (** first unrecoverable operation: which switch and ["install"] /
          ["delete"] *)

val diff : Netsim.entry list -> Netsim.entry list -> Netsim.entry list
(** [diff a b] is the multiset difference [a \ b], in [a]'s order: the
    entries a move from [b] to [a] must install. *)

val same_contents : Netsim.entry list -> Netsim.entry list -> bool
(** Equal as multisets: the tables differ at most in priority order. *)

val apply :
  ?observe:(switch:int -> op:string -> unit) ->
  api:Switch_api.t ->
  Netsim.entry list array ->
  outcome
(** Raises [Invalid_argument] when the target's switch count differs
    from the live tables'.

    [observe] is called immediately {e before} each per-entry operation
    of the two phases (rollback compensation is not observed) — the hook
    the crash-safe journal uses to place mid-apply kill points.  An
    exception raised by [observe] aborts the transaction as-is, leaving
    the tables torn: exactly the situation WAL recovery must repair. *)

val restore : api:Switch_api.t -> Netsim.entry list array -> unit
(** Force-resync every switch whose live table differs from the given
    tables (a controller-driven snapshot restore: no fault draws are
    consumed).  Idempotent — restoring twice is a no-op, and restoring
    tables the data plane already holds touches nothing.  This is both
    rollback's last resort and the recovery path's tool for resolving a
    transaction that was torn by a crash.  Raises [Invalid_argument] on
    a switch count mismatch. *)
