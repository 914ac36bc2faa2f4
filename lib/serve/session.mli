(** One connected client's non-blocking state machine.

    The {!Server} event loop owns every file descriptor; a session only
    sees bytes. Incoming chunks are {!feed}ed and split into request
    lines ({!Lineio}); the loop pops them one at a time with
    {!next_request} — strictly in arrival order, so replies pushed with
    {!push_reply} come back in request order even when the client has
    pipelined many requests. Outgoing bytes queue internally until the
    loop drains them with {!pending_out}/{!wrote} as the socket accepts
    them.

    Lifecycle: after a [quit] reply the remaining pipelined requests
    are discarded ({!has_work} goes false) and the session {!finished}s
    once the out queue drains. EOF on the read side lets the already
    pipelined requests finish first (a client may shut down its write
    side and keep reading replies). {!abort} (write error — the peer
    vanished) drops everything immediately. A request line that passes
    {!max_request_line} bytes with no newline is refused: the session
    stops reading, answers the lines before it, replies
    [error parse: line too long] and finishes.

    This module performs no I/O and never blocks; sgr-lint's
    [no-blocking-in-pool] rule rejects any [Unix]/[Thread] blocking
    call that creeps into the session-layer modules. *)

type t

val create : id:int -> t
val id : t -> int

val max_request_line : int
(** 65,536: the longest request line a session buffers. Requests are
    short (the longest is [load ID PATH]). *)

val feed : t -> bytes -> int -> unit
(** [feed t chunk n] pushes the first [n] bytes just read from the
    socket; complete lines move to the request queue. A pending line
    longer than {!max_request_line} refuses the session (see above), so
    a session never holds more than {!max_request_line} plus one chunk
    of unterminated input. *)

val feed_eof : t -> unit
(** Read side closed. A trailing unterminated line still counts as a
    request. *)

val next_request : t -> string option
(** Pop the oldest pending request line ([None] when none, after a
    quit, or after {!abort}). Popping a refused line's turn queues its
    error reply and returns [None]. *)

val has_work : t -> bool
(** A request is pending and the session still executes requests. *)

val push_reply : t -> string -> unit
(** Queue [reply ^ "\n"] for writing; an ["ok bye"] reply marks the
    session as quitting. *)

val pending_out : t -> string
(** Bytes awaiting the socket ([""] when drained). *)

val wrote : t -> int -> unit
(** The kernel accepted [n] bytes of {!pending_out}. *)

val abort : t -> unit
(** Write-side failure: drop queued requests and replies; the session
    reports {!finished} immediately. *)

val wants_read : t -> bool
(** The loop should keep selecting this fd for reading. *)

val finished : t -> bool
(** Nothing left to read, execute, or write — close the fd and drop
    the session. *)

val close_reason : t -> string
(** ["quit"], ["line too long"] or ["disconnected"], for the server
    log. *)

val buffered : t -> int
(** Bytes of an unterminated request line held for this session. *)

val lines_in : t -> int
(** Request lines received (the per-session counter exposed by the
    [metrics] verb). *)

val replies_out : t -> int
(** Replies queued for this session (blank/comment lines get none). *)
