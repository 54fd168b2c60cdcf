(** The daemon's wire protocol: tenant operations in, typed admission
    and outcome replies out.

    Messages reuse the journal's WAL framing ([[u32 len][u32 crc]] +
    Marshal payload, see {!Journal.Wal}) and are read by its one frame
    walker ({!Journal.Wal.walk}) under the wire's own length cap
    ({!max_frame_len}), so a torn or corrupt stream is cut at the first
    bad frame instead of crashing the decoder — the same
    tear-tolerance the crash-recovery path already trusts.  The
    protocol is deliberately tenant-{e operation} shaped (connect, send
    flows, edit policy, disconnect) rather than engine-event shaped: the
    daemon owns the deterministic translation into {!Runtime.Event}
    values, which is what makes equal request streams reproduce equal
    placements byte for byte. *)

type chaos =
  | Kill_switch  (** fail the busiest live switch in the tenant's shard *)
  | Cut_link  (** fail a random live link *)
  | Shrink_capacity  (** halve a random switch's remaining ACL budget *)

type op =
  | Connect of { rules : int }
      (** tenant arrival: allocate an ingress, route paths, install a
          fresh [rules]-rule policy *)
  | Flow  (** re-route the tenant onto fresh paths *)
  | Update of { rules : int }  (** replace the tenant's policy *)
  | Disconnect  (** tenant departure *)
  | Chaos of chaos  (** operator-injected infrastructure fault *)

type request =
  | Submit of { tenant : int; op : op }
  | Drain
      (** stop admitting, process everything in flight, snapshot every
          shard, reply {!Drained} *)
  | Stats
  | Metrics_dump
      (** dump the daemon's telemetry registry in Prometheus exposition
          format; reply {!Metrics_text} *)
  | Traffic_tick of {
      seed : int;
      epoch : int;
      packets : int;
      alpha : float;
      drift : float;
      probes : int;
    }
      (** walk one drifting-Zipf traffic epoch (see {!Traffic.Zipf})
          over every shard's live tables and report the aggregate
          outcome; stateless in the daemon — the whole walk is a pure
          function of these parameters and the live placement, so a
          restarted daemon answers identically.  Reply
          {!Traffic_report}. *)

type scope =
  | Global  (** the daemon-wide admission queue is full *)
  | Tenant  (** this tenant's own queue is at its bulkhead cap *)

(** Every reply to a [Submit] is typed: an acked event gets a durable
    ticket, a shed event gets an explicit overload reply naming which
    bound it hit — the daemon never silently drops. *)
type reply =
  | Accepted of { tenant : int; ticket : int }
      (** durable: the (tenant, op) pair survived an fsync before this
          reply was sent *)
  | Rejected_overload of {
      tenant : int;
      scope : scope;
      queued : int;  (** occupancy that triggered the shed *)
      limit : int;
    }
  | Rejected of { reason : string }
      (** non-overload refusal (draining, malformed) — never raised for
          load *)
  | Applied of {
      tenant : int;
      ticket : int;
      rung : Runtime.Report.rung;
      verified : bool;
      quarantined : bool;  (** the event fenced the tenant's ingress *)
    }  (** the acked event's final outcome *)
  | Quarantined_ticket of { tenant : int; ticket : int; reason : string }
      (** the acked event could not be translated against the live
          network (e.g. [Flow] from a disconnected tenant) — resolved
          deterministically, identically after any crash/restart *)
  | Drained of { processed : int }
  | Stats_reply of {
      tenants : int;
      accepted : int;
      applied : int;
      quarantined : int;
      shed : int;
      pending : int;
    }
  | Metrics_text of { text : string }
      (** Prometheus exposition text (see {!Telemetry.Metrics.render}) *)
  | Traffic_report of {
      epoch : int;
      flows : int;  (** routed paths walked, summed over shards *)
      delivered : int;  (** traffic-weighted packets delivered *)
      dropped : int;  (** traffic-weighted packets dropped on-path *)
    }

val describe_reply : reply -> string

val max_frame_len : int
(** The wire's frame cap, 16 MiB: a length field above it is corrupt.
    Both readers below walk under it ({!Journal.Wal.walk}), so a frame
    one rejects the other rejects too, and a session never waits to
    buffer a frame larger than this. *)

val encode_request : request -> string
(** One framed message, ready to write. *)

val encode_reply : reply -> string

val decode_requests : string -> request list * int
(** The longest valid prefix of a byte stream as messages plus the bytes
    consumed; a torn tail, an over-cap length, a CRC mismatch or a
    payload that is not a request stops the decode, never raises. *)

val decode_replies : string -> reply list * int

val take_requests : Buffer.t -> request option list * Journal.Wal.stop
(** The live reader: take every whole frame from a growing session
    buffer, leaving the rest in place for the next read.  Each frame is
    its request, or [None] when its payload is not a request (the
    session answers it and reads on).  The stop says why the rest
    stayed: [Short] — it has not fully arrived, wait for more bytes;
    [Bad] — an over-cap length or a CRC mismatch that no more bytes can
    mend, drop the session.  Walks the same frames as
    {!decode_requests}, so fed any chunking of a stream it yields the
    same prefix. *)
