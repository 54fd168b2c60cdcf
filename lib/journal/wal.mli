(** Write-ahead log records and their wire framing.

    Every record is framed as [[u32 len][u32 crc][payload]] (both
    big-endian; [crc] is {!Crc32} of the payload) with the payload a
    [Marshal]ed {!record}.  The framing is what makes recovery safe on a
    torn or corrupt log: {!scan} verifies length bounds and the checksum
    {e before} the bytes ever reach [Marshal], and cuts the log at the
    first record that fails — everything before the cut is trusted,
    everything after is discarded.

    The record sequence for one absorbed event [seq] is:
    [Ev_begin] → ([Tx_intent] → [Tx_commit] if the event produced a
    data-plane write) → [Ev_commit].  Which suffix of that sequence
    survives a crash tells recovery exactly how far the event got (see
    {!Journaled}).  Nothing is logged per consistent-update wave: a torn
    update is rolled back to its [Tx_intent] undo tables and re-run from
    wave 0. *)

type record =
  | Ev_begin of {
      seq : int;
      event : Runtime.Event.t;
      client : string option;
      rungs : Runtime.Report.rung list option;
    }
      (** logged (and fsynced) before the engine sees the event;
          [client] is an opaque blob the caller wants restored alongside
          (e.g. the churn generator's state), [rungs] the per-event
          ladder restriction the caller handled it under ([None] = the
          engine config's rungs) — replay must re-handle the event with
          the same restriction to converge on the same report *)
  | Tx_intent of {
      seq : int;
      undo : Netsim.entry list array;  (** tables the event started from *)
      redo : Netsim.entry list array;  (** target tables *)
    }  (** logged before the first table operation of the transaction *)
  | Tx_commit of { seq : int }  (** logged right after the transaction commits *)
  | Ev_commit of { seq : int; signature : string }
      (** logged once the event is fully absorbed; [signature] is the
          report's {!Runtime.Report.signature}, recovery's cross-check
          that replay converged *)

val seq_of : record -> int
val describe : record -> string

val frame : string -> string
(** Wrap a payload in the length+CRC frame. *)

val unframe : string -> string option
(** Decode a string holding exactly one frame; [None] if torn, corrupt,
    or trailed by garbage.  (Used for sealed snapshot blobs and wire
    messages, each a single frame.) *)

val encode : record -> string
(** A framed, marshaled record, ready to append. *)

val seal : magic:string -> 'a -> string
(** A sealed snapshot blob: one {!frame} around [magic] followed by the
    [Marshal]ed value.  [magic] names the format and its version (e.g.
    ["sdnplace-journal/3\n"]); change it whenever the sealed type
    changes. *)

val unseal : magic:string -> string -> ('a, string) result
(** Invert {!seal}.  The frame and then [magic] are checked before
    [Marshal] reads a byte, so a torn blob is
    [Error "corrupt snapshot"] and one of another format or version
    [Error "unknown snapshot version"]; never raises.  Like [Marshal],
    the result type is the caller's to annotate — it must be the type
    that was sealed under this [magic]. *)

val scan : string -> record list * int
(** [scan log] decodes the longest valid prefix of the log: the records
    in order plus how many bytes they span.  Stops — without raising,
    whatever the bytes are — at a short header, an implausible length, a
    CRC mismatch, or a payload [Marshal] rejects; the remainder is a
    torn tail to truncate. *)

val scan_payloads : string -> string list * int
(** The generic frame walk under {!scan}: the longest prefix of whole,
    checksummed frames, as raw payloads plus the bytes they span.  The
    serving layer's intake logs and wire protocol reuse the WAL framing,
    so the tear-tolerant scan lives here once. *)
