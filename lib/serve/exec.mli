(** A fixed pool of worker domains with a {e deterministic} task→worker
    assignment — the shard executor under the daemon's round loop.

    [run] takes an array of thunks (one per shard) and executes task [i]
    on slot [i mod jobs]; slot 0 is the calling domain, slots
    1..jobs-1 are persistent spawned domains parked on a condition
    variable between rounds.  A slot holding several tasks keeps them
    {e all} in flight on lightweight threads of its domain: tasks are
    share-nothing by contract, and a task blocked in an fsync releases
    the runtime lock, so over-subscribed slots overlap their shards'
    commit waits (the device then batches more journal commits per
    flush) even on a single core.  The partition of work — and
    therefore every shard's execution stream — depends only on the
    task list and [jobs], never on scheduling, which is half of the
    equal-seeds/equal-signatures guarantee (the other half being that
    the tasks themselves are share-nothing).

    Exceptions do not short-circuit the round: every task runs to
    completion or to its own failure, and the first failure in index
    order is re-raised only after the barrier.  A simulated kill in one
    shard therefore leaves every other shard's batch fully processed —
    the same completion rule at [jobs = 1] (a plain in-order loop, no
    domain ever spawned) and at any higher [jobs], so crash/restart runs
    stay byte-identical across the whole [--jobs] range. *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] worker domains (none for [jobs = 1]).  Raises
    [Invalid_argument] for [jobs < 1]. *)

val jobs : t -> int

val run : t -> (unit -> 'a) array -> 'a array
(** Execute every task, task [i] on slot [i mod jobs] (a slot's tasks
    run concurrently on its threads), and return the results in task
    order.  Blocks until all tasks finish.  If any tasks raised, the
    first exception in task order is re-raised — after every other
    task has still run.  At [jobs = 1], or with at most one task, this
    is a plain sequential index-order loop, no threads.  Raises
    [Invalid_argument] after {!stop} (unless there is no task). *)

val stop : t -> unit
(** Join every worker domain.  Idempotent; the executor is unusable
    afterwards.  Call between rounds only — never concurrently with
    {!run}. *)

val stopped : t -> bool
