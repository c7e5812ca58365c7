(** The real transport: the server core behind a Unix-domain or TCP
    listener.

    Single-threaded and select-driven.  {!step} is one bounded pump of
    the event loop (accept, read, decide via {!Server.feed_batch},
    write back), exposed separately from {!serve} so tests can
    interleave client and server turns deterministically in one
    process.  All protocol semantics — logical clocks, fail-closed
    kills, shedding — live in {!Server}; this module only moves
    bytes. *)

type addr = Unix_path of string | Tcp of int
(** [Tcp port] binds 127.0.0.1. *)

type t

val listen : addr -> t
(** Bind and listen.  An existing socket file at a [Unix_path] is
    removed first.  @raise Unix.Unix_error *)

val step : t -> server:Server.t -> timeout:float -> int
(** One pump: wait up to [timeout] seconds for readiness, accept any
    pending connections, flush writable peers' pending output, read
    every ready peer, feed the server, write replies.  Returns the
    number of peers that produced bytes.

    Writes never block.  Reply bytes a peer's socket does not take at
    once stay in that peer's pending output, flushed when [select]
    reports the socket writable.  A peer with pending output is not
    read, so a client that stops reading stalls only itself, and the
    server holds at most the replies to one read of its requests.

    Peers whose connection died fail-closed (and EOF'd peers) are
    disconnected once their replies are flushed; a peer that resets,
    or whose reply write fails with [EPIPE] or [ECONNRESET], is
    disconnected without affecting the others.  A process serving
    sockets should ignore [SIGPIPE] so such a write fails instead of
    killing it. *)

val pending_output : t -> int
(** Reply bytes accepted from the server but not yet taken by the
    peers' sockets, summed over peers. *)

val serve : t -> server:Server.t -> ?max_requests:int -> unit -> unit
(** Pump until [max_requests] requests have executed (forever when
    omitted). *)

val shutdown : t -> unit
(** Close the listener and every peer; removes a [Unix_path] socket
    file. *)

module Client : sig
  type t

  val connect : addr -> t
  (** @raise Unix.Unix_error *)

  val send : t -> Protocol.request -> unit

  val drain : t -> Protocol.reply list
  (** Every reply currently available without blocking.
      @raise Failure on undecodable reply bytes. *)

  val request : t -> Protocol.request -> Protocol.reply * Protocol.reply list
  (** Send and block for the direct reply; returns it plus any [Event]
      replies that streamed in before it. *)

  val close : t -> unit
end
