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

val max_record_len : int
(** The WAL's own frame cap, 1 GiB: a length field above it is corrupt,
    not a record.  Other framed formats pass their own cap to {!walk}. *)

val frame : string -> string
(** Wrap a payload in the length+CRC frame. *)

(** Why a {!walk} stopped. *)
type stop =
  | Short
      (** the bytes from the stop offset on (possibly none) are shorter
          than the frame they start: more bytes may complete it *)
  | Bad
      (** a length out of bounds or a CRC mismatch, which no more bytes
          can mend, or a frame the callback refused *)

val walk : cap:int -> string -> (int -> int -> bool) -> int * stop
(** [walk ~cap s f] walks the frames of [s] from offset 0, handing each
    checksummed payload on in place as [f pos len] (its offset and
    length in [s]; nothing is copied) and going on while [f] returns
    [true].  Returns the offset of the first frame not taken and why
    the walk stopped there.  [cap] is the format's largest payload: a
    length above it is [Bad] even before its bytes arrive.  Every
    framed stream is read through this one walk — the WAL ({!scan}),
    sealed blobs ({!unframe}), the serving layer's intake logs and its
    wire protocol — each caller deciding what a payload that fails to
    decode means.  Never raises. *)

val unframe : string -> string option
(** Decode a string holding exactly one frame; [None] if torn, corrupt,
    or trailed by garbage.  (Used for sealed snapshot blobs.) *)

val pack : 'a -> string
(** A framed value: one {!frame} around its payload encoding
    ([Marshal]).  The payload codec lives here and in {!unpack} only. *)

val unpack : string -> pos:int -> len:int -> 'a option
(** The guarded payload decoder: the value whose encoding spans exactly
    the [len] bytes of [s] from [pos] (a {!walk} callback's
    arguments), or [None] when those bytes are not one whole encoded
    value — never raises.  A checksum proves the bytes arrived as sent,
    not that they encode the caller's type: like [Marshal], the result
    type is the caller's to annotate and must be the type that was
    packed. *)

val encode : record -> string
(** A framed record ({!pack}), ready to append. *)

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
    whatever the bytes are — where {!walk} does under {!max_record_len},
    or at a payload {!unpack} rejects; the remainder is a torn tail to
    truncate. *)
