(** The wire protocol: versioned request/reply payloads.

    One {!request} or {!reply} per {!Frame} payload.  The binary codec
    is deterministic (a value always encodes to the same bytes) and
    decoding is total: every byte string maps to [Ok v] or to a typed
    {!error} — never an exception — so a malicious peer can at worst be
    rejected.

    Fields are written as a byte, a big-endian 32-bit unsigned integer,
    a big-endian 64-bit signed integer, or a string (u32 length, then
    the bytes).  A rational is two 64-bit integers, numerator then
    denominator, and decodes only in normalized form ([den > 0],
    [gcd |num| den = 1], both within the native int range); any other
    pair is [Malformed], so every value has exactly one encoding.
    Native ints ([Retry_scheduled.attempt], [Gave_up.attempts],
    [Policy_changed.version]) are 64-bit and range-checked the same
    way.  An [Event] reply carries one kind byte (the constructor's
    position in {!Obs.Trace.event}, 0–20), the event time, then the
    constructor's fields in declaration order; stages, faults and
    booleans are one-byte codes.

    Encodings an operator can read instead live in the JSONL debug
    codec ({!request_to_line}/{!reply_to_line}), which reuses
    {!Obs.Export} for verdicts and trace events so service logs and
    trace exports share one JSON dialect.  JSON never travels on the
    wire.

    Caveat shared with {!Obs.Export}: an access whose operation is a
    {e standard} name under [Custom] (e.g. [Custom "read"]) decodes as
    the standard constructor.  No emitter in this repo produces such
    accesses. *)

val version : int
(** Wire version carried in every payload's first byte; currently 2.
    A payload of any other version decodes to [Bad_version]. *)

type request =
  | Ping  (** liveness probe; answered with [Ack] *)
  | Register of {
      object_id : string;
      owner : string;
      roles : string list;  (** activated best-effort, like scenarios *)
      program : Sral.Ast.t;
    }
  | Arrive of { object_id : string; server : string }
  | Depart of { object_id : string }
      (** forget the object: its session is dropped and later requests
          naming it are rejected *)
  | Check of { object_id : string; access : Sral.Access.t }
  | Activate of { object_id : string; role : string }
  | Join of { object_id : string; team : string }
  | Subscribe
      (** stream this connection's trace events as [Event] replies *)

type reply =
  | Ack of { seq : int }
  | Verdict of { seq : int; verdict : Obs.Verdict.t }
  | Rejected of { seq : int; reason : string }
      (** the request was understood but refused (unknown object,
          unknown user, protocol violation); the connection may also
          have been closed — see {!Server} *)
  | Shed of { seq : int }
      (** dropped by overload control before execution *)
  | Event of Obs.Trace.event

type error =
  | Truncated  (** payload ended mid-field *)
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string
      (** a field failed to parse (program text, a non-normalized
          rational, an out-of-range integer, an unknown code byte) or
          trailing bytes followed a complete payload *)

val describe : error -> string

val encode_request : request -> string
val decode_request : string -> (request, error) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, error) result

val request_to_line : request -> string
(** One JSON object (no newline) — the debug form. *)

val reply_to_line : reply -> string
(** One JSON object (no newline); verdicts embed
    {!Obs.Export.verdict_to_json}, events embed {!Obs.Export.to_line}. *)
