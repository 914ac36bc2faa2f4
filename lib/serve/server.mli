(** Unix-domain-socket serve loop.

    Concurrent sessions, one select-driven event loop: every connected
    client gets a non-blocking {!Session} state machine (buffered
    reads, queued writes). Requests pipeline freely — a client may send
    many lines before reading a reply — and replies come back strictly
    in request order within each session. Across sessions the loop
    executes one request per turn, round-robin over the sessions with
    pending work, so a long pipeline cannot starve the others and the
    {!request_stop} flag is re-checked between any two requests.

    Session failures are contained: a read or write error on one fd is
    treated as that client's disconnect, and a non-[EINTR] [select]
    error drops only the broken descriptors — never the server.

    The server never prints: all operational chatter goes through the
    [log] callback supplied by the frontend (lib code stays pure). *)

type t

exception Busy of string
(** Raised by {!run} (before binding) when a live server already
    answers on the socket path. The argument is the path. *)

val create : socket_path:string -> cache:Cache.t -> log:(string -> unit) -> t

val request_stop : t -> unit
(** Async-signal-safe (a single atomic store): callable from a signal
    handler. The loop notices within one poll interval (0.2s) when
    idle, or between two requests when busy. *)

val run : t -> unit
(** Bind, listen, and serve until {!request_stop}. An existing socket
    file at the path is probed first: if a server answers a [ping]
    there, {!Busy} is raised and nothing is touched; only a stale file
    (connection refused, or a listener that hangs up silently) is
    unlinked before binding. The socket is bound under a temporary name
    in the same directory and renamed onto the path after listen(2), so
    the path appears only once connects succeed. Both names are
    unlinked on exit. On
    stop the loop logs a final {!Metrics.render} snapshot (one log
    line per exposition line) before closing the remaining sessions.
    The frontend should ignore SIGPIPE so an abruptly-vanishing client
    surfaces as [EPIPE] (handled as a disconnect) rather than killing
    the process. *)
