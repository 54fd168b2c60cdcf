(** Domain-safe metrics registry: counters, gauges and fixed-bucket
    histograms built on [Atomic] cells, with Prometheus text exposition.

    Collection is off by default: every record operation first checks a
    single atomic enable flag and returns immediately when telemetry is
    disabled, so instrumented hot paths pay one load + branch.  No clock
    is consulted while disabled, which keeps deterministic runs
    byte-identical with telemetry on or off.

    Handles are cheap and may be created at module-initialisation time;
    registering the same (name, labels) pair twice returns the existing
    cell.  All mutation paths are safe under concurrent domains. *)

type registry

val default_registry : registry
(** The process-wide registry used when [?registry] is omitted. *)

val create_registry : unit -> registry
(** A fresh private registry (used by tests). *)

val enable : ?registry:registry -> unit -> unit

val disable : ?registry:registry -> unit -> unit

val is_enabled : unit -> bool
(** Whether the process-wide registry records. *)

val set_label_cap : ?registry:registry -> int option -> unit
(** Bound the number of distinct labeled series any single metric name
    may carry.  Once a name holds [cap] labeled series, further
    registrations with {e new} label sets are redirected to that name's
    overflow series — the same label keys with every value replaced by
    ["_overflow"] — so unbounded label spaces (per-tenant counters, say)
    aggregate into one cell instead of growing the registry without
    limit.  Existing series, unlabeled series, and re-registrations of
    an already-present label set are unaffected.  [None] (the default)
    removes the bound.  Raises [Invalid_argument] on a cap < 1. *)

val overflow_value : string
(** The label value every overflow-series label carries: ["_overflow"]. *)

type counter

type gauge

type histogram

val counter :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  counter
(** [counter name] registers (or looks up) a monotonically increasing
    integer counter.  Raises [Invalid_argument] on a malformed metric
    name or a kind clash with an existing series. *)

val gauge : ?registry:registry -> ?help:string -> string -> gauge

val histogram :
  ?registry:registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are the finite upper bounds (ascending); an implicit +Inf
    bucket is always appended.  Defaults to {!duration_buckets}. *)

val duration_buckets : float array
(** Default latency buckets, in seconds: 10us .. 30s. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration.  When telemetry
    is disabled the thunk runs directly and the clock is never read. *)

type histogram_snapshot = {
  upper : float array;  (** finite bucket upper bounds, ascending *)
  counts : int array;  (** per-bucket counts, length [upper]+1 (+Inf last) *)
  sum : float;
}

val snapshot : histogram -> histogram_snapshot

val render : ?registry:registry -> unit -> string
(** Prometheus text exposition of every registered series, in
    registration order, including zero-valued series. *)

val series_names : ?registry:registry -> unit -> string list
(** Full exposition series names (histograms expand to [_bucket]/[_sum]/
    [_count]); same order and multiplicity as {!render} lines. *)

val check_exposition : ?registry:registry -> string -> (int, string) result
(** Validate a Prometheus text exposition against the registry: every
    sample line must name a registered series and no series may appear
    twice.  Returns the number of distinct series on success. *)
