(** Injectable durable storage for the journal.

    Everything the crash-safe layer persists flows through this record of
    operations: an append-only write-ahead log plus a single snapshot
    slot.  Two implementations ship — an in-memory store whose crash
    semantics are fully scriptable (partial writes, short reads, bit
    corruption), and a file-backed store with real [fsync] barriers.
    The journal itself never knows which one it is writing to, which is
    what lets the kill-point test harness exercise every crash window
    without touching a filesystem. *)

type t = {
  wal_append : string -> unit;
      (** append raw bytes to the log (buffered until [wal_sync]) *)
  wal_sync : unit -> unit;  (** durability barrier for prior appends *)
  wal_read : unit -> string;
      (** the durable log contents, as one byte string *)
  wal_reset : unit -> unit;  (** truncate the log (after compaction) *)
  snap_write : string -> unit;
      (** atomically replace the snapshot blob (durable on return) *)
  snap_read : unit -> string option;  (** the snapshot blob, if any *)
}

(** {1 In-memory store with scriptable failures} *)

type memory
(** Control handle for the in-memory store — the test harness's lever
    for simulating crashes. *)

val memory : unit -> t * memory

val crash : ?keep:int -> memory -> unit
(** Simulate a process crash: unsynced appends are lost, except that the
    first [keep] bytes of the pending buffer survive (a partial/torn
    write reaching the disk before power loss).  [keep] defaults to 0
    and is clamped to the pending size. *)

val corrupt : memory -> pos:int -> char -> unit
(** Overwrite one durable log byte in place (media corruption).
    Out-of-range positions are ignored. *)

val chop : memory -> int -> unit
(** Drop the last [n] durable log bytes (a short read / truncated
    tail).  Clamped to the durable size. *)

val durable_size : memory -> int
(** Bytes of log a re-opened store would see. *)

val pending_size : memory -> int
(** Bytes appended but not yet synced. *)

val snapshot_of : memory -> string option
(** The durable snapshot blob (to corrupt or inspect). *)

val set_snapshot : memory -> string option -> unit
(** Replace or erase the durable snapshot blob directly. *)

(** {1 Group-commit wrapper}

    Batched append/fsync over a raw store's WAL half — the serving
    layer's intake logs accumulate the records admitted in one poll
    cycle and pay the durability barrier {e once per batch} instead of
    once per record.  The wrapper only counts; the invariant (nothing is
    acknowledged before a barrier covering its append) is the caller's
    protocol, checked by its staged count reading zero. *)
module Batched : sig
  type store := t
  type t

  val wrap : store -> t
  (** A fresh wrapper (zero staged, zero counters) over [store]. *)

  val append : t -> string -> unit
  (** [wal_append] the bytes and stage them: they are {e not} durable
      until the next {!flush} (or an out-of-band {!note_durable}). *)

  val flush : t -> unit
  (** Durability barrier for every staged append — [wal_sync] exactly
      once, skipped entirely when nothing is staged (an idle flush costs
      nothing). *)

  val note_durable : t -> unit
  (** Declare the staged appends durable through some other barrier —
      the intake compaction path, which moves pending records into the
      atomic snapshot slot (durable on return) before truncating the
      log they were staged in. *)

  val staged : t -> int
  (** Appends not yet covered by a barrier. *)

  val appends : t -> int
  (** Total appends since {!wrap}. *)

  val syncs : t -> int
  (** Total [wal_sync] barriers actually issued since {!wrap} — the
      denominator of the bench's fsyncs-per-event measurement. *)
end

(** {1 File-backed store} *)

val file : dir:string -> t
(** Store the log as [dir/wal.log] and the snapshot as [dir/snapshot.bin]
    (written to a temp file, fsynced, then renamed over, then [dir]
    fsynced).  Creates [dir] and any missing parents, fsyncing the
    parent of each directory it creates, and fsyncs [dir] after it
    creates [wal.log], so every new entry is durable.  A file system
    that refuses to fsync a directory is tolerated (the barrier is then
    weaker, never wrong).  Appends are written immediately and fsynced
    at [wal_sync]. *)
