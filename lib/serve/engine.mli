(** Request execution and batch scheduling.

    {b Determinism.} A reply is a pure function of the instance bytes
    and the request parameters — never of the cache state or the job
    count. {!run_batch} fans per-instance request
    groups across {!Sgr_par.Pool} but keeps each group sequential in
    input order and scatters replies back by line index, so its output
    is byte-identical at any [--jobs]. The [stats] and [metrics]
    replies are executed at a barrier so their counts reflect every
    preceding request; [metrics] splits its output into a
    count-and-gauge section that shares the byte-identical guarantee
    and a latency-histogram section that is explicitly exempt (see
    {!Metrics}). Under eviction pressure (working set larger than the
    LRU) recency order — and therefore the hit/miss/eviction split —
    becomes scheduling-dependent at [--jobs > 1]; the determinism
    property is stated for workloads whose distinct instances fit the
    cache, which is how the CI property test runs.

    {b Deadlines.} A [@MS] prefix is enforced {e pre-emptively}:
    {!execute} arms a per-domain {!Sgr_obs.Cancel} deadline around the
    dispatch, and the solver inner loops (column-generation pricing
    rounds, MOP per-commodity steps, bisection iterations) checkpoint
    against it and abort mid-compute with
    [error timeout: request cancelled at its Nms deadline (no result
    memoized)]. The cancellation exception propagates through
    [Cache.memo] before anything is stored, so a cancelled result is
    never memoized — a retry recomputes from cold. Work the
    checkpoints cannot reach (a [sweep] fanned over pool worker
    domains, or a request that finishes just past the line) falls back
    to the original post-hoc check: the result {e is} memoized and the
    reply says [(result cached for retry)].

    {b Failure modes.} A malformed line yields [error parse:], a solver
    or applicability failure [error solve:], an unreadable file
    [error io:] — the loop itself never raises. *)

val execute : Cache.t -> Protocol.line -> string
(** One request, one reply line. Performs no channel I/O besides
    reading the file named by a [load]. Safe to call from pool worker
    domains (it emits no Obs spans or points, only atomic counters and
    per-domain latency shards via [Hist.observe]). *)

val execute_raw : Cache.t -> string -> string option
(** Parse one raw line and execute it; [None] for blank/comment lines.
    This is the serve loop's per-line step. *)

val run_batch : ?jobs:int -> Cache.t -> string list -> string list
(** Execute a batch, one reply per non-blank line, in input order.
    Requests after a [quit] line are not executed and produce no
    replies. [jobs] defaults to {!Sgr_par.Pool.default_jobs}. *)
