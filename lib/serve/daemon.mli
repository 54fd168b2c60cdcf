(** The multi-tenant placement daemon: admission control, fair
    scheduling and graceful drain over a set of {!Shard}s.

    Tenants are partitioned onto shards by [tenant mod shards]; each
    shard is an independently journaled region, so one region's crash
    recovery or quarantine storm never touches another's state.  The
    daemon in front enforces the {b robustness contract}:

    - {e bounded admission}: a global pending cap and a per-tenant cap;
      an event over either bound gets a typed
      {!Wire.Rejected_overload} naming the bound — acked events are
      never shed, shed events are never silent;
    - {e fair rounds}: each round takes at most [round_slots] tickets
      per shard and [tenant_round_cap] per tenant, so a flooding tenant
      saturates its own allowance while others keep their latency;
    - {e graceful drain}: stop admitting, process everything acked,
      snapshot every shard;
    - {e crash-resume}: {!start} recovers every shard that has a durable
      snapshot and re-queues acked-but-unprocessed tickets.

    {b Parallel rounds.}  Each scheduling round splits into a
    sequential {e plan} (each shard selects its own tickets, shard
    order; shards share nothing), a parallel {e execute} (each
    non-empty batch on a fixed {!Exec} domain pool, share-nothing), and
    a sequential {e merge} (accounting and replies, shard order, on the
    calling domain).  The reply stream and every
    signature are therefore a function of the request sequence and the
    seed alone — byte-identical at any [jobs], which is what the bench's
    equal-seeds/equal-signatures gate checks across the [--jobs] range.

    {b Group commit.}  With [batch_fsync > 1] admission {e stages}
    intake records and their [Accepted] acks; one covering fsync per
    dirty shard is paid at {!flush} (issued automatically by {!tick},
    {!drain}, and whenever the staged count reaches [batch_fsync]), and
    only then are the acks released — an ack still always means "an
    fsync covered this record", there are just fewer fsyncs than acks.

    The daemon's control loop is single-threaded (admission, planning
    and merging all happen on the calling domain); only shard batch
    execution fans out.  Counters are {!Atomic} so any stats read is
    untearable regardless of which domain asks. *)

type config = {
  shards : int;
  queue_limit : int;  (** daemon-wide pending-ticket cap *)
  tenant_queue_limit : int;  (** per-tenant pending-ticket cap *)
  round_slots : int;  (** tickets each shard processes per round *)
  tenant_round_cap : int;  (** per-tenant tickets per round *)
  jobs : int;
      (** worker domains for batch execution (1 = fully sequential;
          results are byte-identical either way) *)
  batch_fsync : int;
      (** acks staged per covering intake fsync (1 = sync every
          admission, the pre-group-commit behaviour) *)
  shard : Shard.config;
  seed : int;
}

val default_config : config
(** 4 shards, queue 64 (8/tenant), 8 slots per shard per round
    (2/tenant), [jobs = 1], [batch_fsync = 1].  Every daemon bounds its
    per-tenant labeled telemetry series at 32
    ({!Telemetry.Metrics.set_label_cap}). *)

type t

val create :
  ?config:config ->
  ?kill:(shard:int -> Journal.Journaled.kill_point -> unit) ->
  stores:(int -> Shard.stores) ->
  unit ->
  t
(** Boot fresh shards ([stores i] supplies shard [i]'s journal and
    intake stores — memory stores in tests, per-shard directories under
    the CLI).  [kill] is threaded to every shard's journal (the bench's
    mid-update crash lever), now {e per shard}: kill plans must count
    per-shard kill points, because under [jobs > 1] the interleaving of
    different shards' journal writes is scheduling-dependent — only each
    shard's own stream is deterministic.  Raises [Invalid_argument]
    when [config.shards] or [config.jobs] is below 1. *)

type started = {
  daemon : t;
  recovered_shards : int;  (** shards rebuilt from a durable snapshot *)
  replayed : int;  (** journaled events re-executed across shards *)
  reissued : int;  (** acked tickets re-queued across shards *)
  divergences : string list;  (** recovery cross-check failures *)
}

type start_error = {
  shard : int;  (** the first shard, by index, whose snapshot is unreadable *)
  reason : string;  (** ["corrupt snapshot"] or ["unknown snapshot version"] *)
}

val start :
  ?config:config ->
  ?kill:(shard:int -> Journal.Journaled.kill_point -> unit) ->
  stores:(int -> Shard.stores) ->
  unit ->
  (started, start_error) result
(** {!create} or crash-resume, per shard: a shard with a durable
    snapshot is {!Shard.recover}ed, one with no snapshot at all is
    created fresh.  A corrupt or unknown-version journal snapshot is
    neither: the start is refused with the shard named, and every
    shard's snapshot is read before any shard writes, so no store is
    touched — booting such a shard fresh would overwrite its acked
    events.  [config.seed] must match the crashed process.  Rejects
    the configs {!create} rejects, before touching any store. *)

val shutdown : t -> unit
(** Join the executor's worker domains.  Idempotent.  Call when
    abandoning a daemon without draining it (the bench's simulated
    crashes) — leaked domains accumulate across restarts and OCaml caps
    live domains at ~128.  The daemon must not {!flush}/{!tick}/{!drain}
    after shutdown. *)

val submit : t -> Wire.request -> Wire.reply list
(** Handle one request.  [Submit] returns exactly one admission reply
    ([Accepted] / [Rejected_overload] / [Rejected]) when it can — under
    group commit ([batch_fsync > 1]) an admission that doesn't fill the
    batch returns [[]] and its [Accepted] ack is released by the next
    {!flush}/{!tick}/{!drain}, in admission order.  [Drain] processes
    everything and returns [Drained]; [Stats] returns [Stats_reply].
    Processing outcomes for accepted events arrive from {!tick}. *)

val flush : t -> Wire.reply list
(** Group-commit barrier: one covering fsync per dirty shard, then the
    staged [Accepted] acks in admission order.  [[]] when nothing is
    staged (no fsync paid). *)

val tick : t -> Wire.reply list
(** {!flush}, then run one fair scheduling round across all shards
    (plan sequentially, execute on the domain pool, merge in shard
    order).  Returns the released acks followed by the outcome replies
    ([Applied] / [Quarantined_ticket]).  Nothing is processed before
    its ack's covering barrier. *)

val drain : t -> Wire.reply list
(** Stop admitting, {!flush}, process every pending ticket (unbounded
    rounds on the domain pool), snapshot every shard.  Returns released
    acks, outcome replies, then [Drained]. *)

val pending : t -> int

val resolved : t -> tenant:int -> ticket:int -> bool
(** The acked ticket has been processed (applied or deterministically
    quarantined) — the no-lost-acks invariant's probe. *)

val shed : t -> int
(** Overload rejections issued so far (all of them typed). *)

val draining : t -> bool

val stats_reply : t -> Wire.reply
(** Untearable: each counter is a single {!Atomic} read; counters only
    move between rounds on the control domain, so the reply is a
    consistent snapshot. *)

type intake_stats = { appends : int; fsyncs : int }

val intake_stats : t -> intake_stats
(** Lifetime intake appends and fsync barriers summed over shards — the
    bench's fsyncs-per-event ratio ([batch_fsync = 1] pins it at 1). *)

val signature : t -> string
(** Digest over every shard's {!Shard.signature} — the whole daemon's
    observable state. *)

val tenant_signatures : t -> (int * string) list
(** Every known tenant's {!Shard.tenant_signature}, ascending. *)

type served = {
  sessions : int;  (** sessions served over the loop's lifetime *)
  total_requests : int;  (** frames read, malformed payloads included *)
  drain_requested : bool;  (** an explicit [Drain] ended the loop *)
}

val serve_sessions :
  t ->
  ?listen:Unix.file_descr ->
  ?session:Unix.file_descr * Unix.file_descr ->
  ?max_sessions:int ->
  unit ->
  served
(** The daemon's one session loop.  [session] is an [(input, output)]
    pair of fds open from the start — stdin/stdout under the CLI; a
    socket session has one fd for both.  [listen] is a listening socket
    on which up to [max_sessions] (default 4) concurrent sessions are
    accepted.  The loop closes only the fds it accepted; the caller
    owns [session] and [listen] and calls {!shutdown}.

    Sessions are multiplexed over one admission path with
    [Unix.select].  Each poll cycle reads every ready session (session
    order, so admission order is deterministic given arrival order) —
    every whole frame that arrived ({!Wire.take_requests}) — pays one
    group-commit {!flush} for the whole cycle, then runs one {!tick}
    round if work is pending.  A burst that arrives in one read is thus
    admitted before any of it is processed: under [batch_fsync > 1] it
    shares its fsyncs, and a burst larger than the queue caps gets
    typed overload rejections.  A payload that is not a request gets a
    typed [Rejected]; the session reads on.  Replies that name a tenant
    are routed to the session that last submitted for that tenant;
    [Drained] broadcasts and is the last reply.

    A torn frame (an over-cap length or a CRC mismatch) drops only its
    session, after the frames before it.  The loop ends on an explicit
    [Drain] (admission stops at once: a [Submit] read after it gets
    [Rejected "draining"]; then drained broadcast, all sessions
    closed), or when no
    session is open any more — the last one ended on EOF, a torn frame
    or a hang-up, and a listener, if any, has served at least one.  The
    latter runs the same graceful drain with nobody left to read the
    outcomes.  Either way every acked event has been processed and
    every shard snapshotted when it returns.  SIGPIPE is ignored while
    the loop runs, so a session that hangs up is dropped instead of
    killing the process.  Raises [Invalid_argument] when [max_sessions]
    is below 1. *)
