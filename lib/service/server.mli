(** The decision server core: connections in, reply bytes out.

    A pure state machine over byte strings — it owns no socket, no
    clock and no thread, which is what lets one core serve both the
    deterministic in-process transport ({!Sim_net}) and the real
    Unix-socket backend ({!Net_unix}) with bit-identical behavior.

    Each connection decides against its own {!Coordinated.System.clone}
    of the base system (a connection is an isolated coalition, exactly
    the shard isolation the parallel engine relies on), and request [i]
    on a connection executes at ℚ time [i] — a per-connection logical
    clock, so a connection's verdict stream depends only on its own
    request order, never on transport timing or on other connections.

    Failure policy is {e closed}:
    - a framing error or an undecodable payload yields one [Rejected]
      reply, an [Aborted] trace event, and kills the connection — no
      later bytes from a peer that has already sent garbage are
      trusted;
    - frames beyond [queue_capacity] in a single {!feed} are shed
      unexecuted, each with a [Shed] reply and an [Aborted] trace event
      (reason ["overload-shed"]) so load shedding is auditable. *)

type config = {
  mode : Coordinated.System.decision_mode;
  queue_capacity : int;
      (** max frames executed per {!feed} call; the rest shed *)
  max_frame : int;  (** framing ceiling, bytes *)
}

val default_config : config
(** [Lazy], 256 frames, {!Frame.max_frame_default}. *)

type t

val create : ?config:config -> base:Coordinated.System.t -> unit -> t
(** The base system is cloned per connection; its policy object is
    shared (and must not be mutated while the server is live). *)

val open_conn : t -> int
(** A fresh connection id.  The clone's trace bus gets a capture sink
    immediately, so a later [Subscribe] streams events from the moment
    it executes. *)

val close_conn : t -> conn:int -> unit

val conn_alive : t -> conn:int -> bool
(** [false] once the connection was killed fail-closed (or closed). *)

val feed : t -> conn:int -> string -> string
(** Push raw bytes from the connection; returns the raw reply bytes to
    send back (zero or more frames — replies to every frame completed
    by these bytes, with any subscribed trace events interleaved
    {e before} the reply of the request that caused them).  Unknown or
    dead connections produce [""]. *)

val feed_batch : t -> (int * string) list -> (int * string) list
(** [feed] for several connections at once, on the calling domain.
    Byte chunks for the same connection are concatenated in list order
    and fed as one call, connections in first-appearance order; the
    result has one [(conn, reply_bytes)] entry per distinct connection,
    in that same order. *)

val executed : t -> int
(** Requests executed over the server's lifetime. *)

val shed : t -> int

val malformed : t -> int
(** Connections killed for framing/decode errors. *)
