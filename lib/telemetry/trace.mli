(** Hierarchical tracing spans with deterministic identifiers.

    A span records a named interval [start_s, end_s] of wall-clock time
    ([Unix.gettimeofday]).  The current span is tracked per domain (via [Domain.DLS]),
    so a span opened on a spawned domain starts a root of its own.

    Span identifiers do not depend on wall time or on cross-domain
    scheduling: the id of a span is a 64-bit mix of the trace seed, the
    parent id, the span name and the occurrence index of that name under
    that parent — so equal-seed runs produce identical ids even though
    their timestamps differ.

    Tracing is off by default; when disabled, [start] returns {!null},
    [with_span] just runs its thunk, and the clock is never read. *)

type span

val null : span
(** The no-op span: finishing or attributing it does nothing. *)

val enable : unit -> unit

val disable : unit -> unit

val is_enabled : unit -> bool

val set_seed : int -> unit
(** Seed for span-id derivation (default 0).  Also applied by {!reset}. *)

val start : string -> span
(** Open a span under the calling domain's current [with_span] scope
    (root if none). *)

val finish : span -> unit
(** Close a span (idempotent).  End time is clamped to [>= start]. *)

val add_attr : span -> string -> string -> unit

val current : unit -> span option
(** The calling domain's innermost open [with_span] scope, if any. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Scoped span: opens, makes it the domain's current span for the
    dynamic extent of the thunk, and closes it even on exceptions. *)

type info = {
  id : int64;
  parent : int64 option;
  name : string;
  start_s : float;
  end_s : float;  (** [nan] while the span is open *)
  attrs : (string * string) list;
}

val spans : unit -> info list
(** All recorded spans (open and closed), in start order. *)

val root_count : ?name:string -> unit -> int
(** Closed root spans (optionally only those named [name]). *)

val check_nesting : unit -> string list
(** Structural violations: unfinished spans, children referencing a
    missing parent, or child intervals outside their parent's.  Empty
    means the trace nests correctly. *)

val export_jsonl : unit -> string
(** One JSON object per span per line, in start order. *)

val reset : unit -> unit
(** Drop all recorded spans and occurrence counts (the enable flag and
    the seed are kept). *)
