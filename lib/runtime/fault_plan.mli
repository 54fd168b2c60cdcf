(** Seeded fault injection for the switch-install API.

    A fault plan decides, per table operation, whether the switch
    acknowledges ([Ok]), rejects ([Fail] — e.g. a TCAM write error) or
    never answers ([Timeout]).  Draws come from a private {!Prng}
    stream, so a given seed produces the same fault sequence for the
    same operation sequence — chaos runs are exactly replayable, which
    is what makes the runtime's failure handling testable at all.

    Switches marked {e dead} (lost to a [Switch_fail] event) reject
    every operation unconditionally, on top of the probabilistic
    faults. *)

type outcome = Ok | Fail | Timeout

type t

val faultless : unit -> t
(** A fresh plan with no probabilistic faults: every operation succeeds
    until the caller marks a switch dead or forces fails.  What
    {!Engine.create} defaults to when no fault plan is given. *)

val make : ?fail_rate:float -> ?timeout_rate:float -> seed:int -> unit -> t
(** [fail_rate] (default 0.0) and [timeout_rate] (default 0.0) are
    per-operation probabilities; their sum must be <= 1.0 (raises
    [Invalid_argument] otherwise). *)

val fail_next : t -> int -> unit
(** [fail_next plan n] forces the next [n] draws to [Fail] regardless of
    rates — the deterministic knob tests use to hit a specific wave or
    phase of an update. *)

val mark_dead : t -> int -> unit
(** Every subsequent operation on this switch fails. *)

val is_dead : t -> int -> bool

val draw : t -> switch:int -> outcome
(** Consume one draw for an operation on [switch]. *)

val jitter : t -> float
(** Uniform in \[0.5, 1.5), from the same seeded stream — the backoff
    jitter factor, kept here so retry schedules replay with the plan. *)
