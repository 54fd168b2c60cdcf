(** Structured transition reports: one per absorbed event.

    The report names the {e rung} of the graceful-degradation ladder
    that produced the transition, how the data-plane write went, what
    got quarantined and whether post-event verification passed —
    everything an operator (or a test) needs to audit how the runtime
    degraded under pressure.

    {!signature} renders every deterministic field and nothing else (no
    wall-clock durations), so two chaos runs from the same seed must
    produce identical signature sequences — the replayability contract
    the test suite enforces. *)

type rung =
  | Noop  (** pure bookkeeping (e.g. a capacity shrink that still fits) *)
  | Incremental  (** deadline-bounded {!Placement.Incremental} sub-solve *)
  | Full_resolve  (** from-scratch re-solve with the remaining budget *)
  | Greedy  (** {!Placement.Baseline} ingress-first heuristic *)
  | Quarantine
      (** fail closed: last-good tables kept, affected ingresses fenced *)

val rung_name : rung -> string

type applied =
  | Committed  (** the consistent wave update committed *)
  | Committed_fallback
      (** the consistent wave update could not be planned or aborted,
          and the direct add-before-delete plan ({!Update.direct})
          committed instead — correct outcome, no per-packet
          consistency mid-update *)
  | Rolled_back of string
      (** the direct plan hit an unrecoverable install/delete: which
          op, as ["op@switch"] *)
  | Kept_last_good  (** no update attempted (quarantine / noop) *)

val applied_name : applied -> string

type t = {
  event : string;  (** {!Event.describe} of the absorbed event *)
  rung : rung;
  solve_status : string;  (** final solver status on that rung, or "-" *)
  applied : applied;
  newly_quarantined : int list;  (** ingresses this event fenced *)
  quarantined : int list;  (** total under quarantine afterwards *)
  verified : bool;  (** post-event placement + forwarding checks *)
  entries : int;  (** live data-plane entries after the event *)
  attempts : int;  (** switch operations sent (retries included) *)
  failures : int;  (** injected failures observed *)
  timeouts : int;  (** injected timeouts observed *)
  retries : int;
  forced_resyncs : int;
  waves : int;
      (** consistent-update waves committed for this event (0 after the
          direct plan or when no update ran) *)
  wall_s : float;  (** event handling time — excluded from {!signature} *)
}

val signature : t -> string
(** Canonical timing-free rendering; equal seeds must give equal
    signature sequences. *)

val pp : Format.formatter -> t -> unit
