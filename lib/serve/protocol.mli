(** The line-oriented request protocol.

    One request per line; one reply line per request. Blank lines and
    [#] comments are skipped without a reply. Grammar (see
    docs/serving.md for semantics and examples):

    {v
    line     := [ '@'MS ' ' ] request        deadline in milliseconds
    request  := load ID PATH
              | solve ID (nash|opt)
              | assign ID (nash|opt) [fw|msa]
              | optop ID
              | mop ID
              | induced ID ALPHA
              | sweep ID ALPHA
              | sweep ID LO HI N               2 <= N <= 1001
              | stats | metrics | ping | quit
    reply    := ok KIND [k=v ...]
              | error (parse|solve|timeout|io): MESSAGE
    v}

    Floats parse with [float_of_string], and [-0] reads as [0].
    Replies are a single line, except [metrics], whose reply is the
    header [ok metrics lines=N] followed by exactly [N] further lines
    of Prometheus-style text exposition (see docs/serving.md); floats
    are printed with [%.9g]. *)

type request =
  | Load of { id : string; path : string }
  | Solve of { id : string; obj : [ `Nash | `Opt ] }
  | Assign of { id : string; obj : [ `Nash | `Opt ]; method_ : [ `Fw | `Msa ] }
  | Optop of { id : string }
  | Mop of { id : string }
  | Induced of { id : string; alpha : float }
  | Sweep_point of { id : string; alpha : float }
  | Sweep_range of { id : string; lo : float; hi : float; samples : int }
  | Stats
  | Metrics
  | Ping
  | Quit

type line = { deadline_ms : int option; request : request }

val parse_line : string -> (line option, string) result
(** [Ok None] for blank/comment lines; [Error msg] for a malformed
    request (the engine turns it into an [error parse:] reply). *)

val instance_id : request -> string option
(** The instance an exclusively-sequential batch group is keyed on;
    [None] for session-level requests
    ([stats]/[metrics]/[ping]/[quit]). *)

val request_kind : request -> string
(** Stable kind label ("load", "solve", …) used for per-kind latency
    counters and memo keys. *)

val memo_key : request -> string option
(** Canonical memo key for requests whose reply payload is a pure,
    deterministic function of the instance — [None] for [load] and the
    session-level requests, whose replies depend on cache state. The
    key is the request alone: kind and parameters, never the id. *)

val float_str : float -> string
(** [%.9g] — the reply float format. *)

val error_reply : [ `Parse | `Solve | `Timeout | `Io ] -> string -> string
(** [error CLASS: message], with newlines flattened so the reply stays
    one line. *)
