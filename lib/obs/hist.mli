(** Fixed-memory log-bucketed latency histograms (DDSketch/HDR style).

    A histogram covers [(lo, hi]] seconds with buckets whose bounds grow
    geometrically by [gamma = (1 + alpha) / (1 - alpha)]: bucket [i]
    covers [(lo*gamma^(i-1), lo*gamma^i]], so {!record} is O(1) (one
    [log], one array increment) and the whole structure is a few KB
    regardless of how many samples it absorbs. Values at or below [lo]
    land in an underflow bucket, values above [hi] in an overflow
    bucket; exact [count], [sum], [min] and [max] are kept alongside.

    {b Quantile rank-error bound.} [quantile t q] returns the
    nearest-rank estimate: with [n] recorded samples it locates the
    bucket holding the [max 1 (ceil (q * n))]-th smallest sample [x]
    and returns that bucket's representative, clamped into the observed
    [[min, max]]. The guarantee, property-tested against an exact
    sorted-array oracle in [test/test_hist.ml]:

    - if [lo < x <= hi] then [|quantile t q - x| <= alpha * x]
      (relative error at most [alpha], 1% by default);
    - if [x <= lo] (underflow) the estimate is the exact minimum, so
      the absolute error is at most [lo] (1 ns by default);
    - if [x > hi] (overflow) the estimate is the exact maximum.

    The bound holds because the cumulative bucket walk reproduces the
    sorted order exactly up to intra-bucket permutation: the rank-[k]
    sample provably lies in the bucket where the cumulative count first
    reaches [k], every value in bucket [i] is within a factor
    [1 +- alpha] of the representative [upper_i * (1 - alpha)], and
    clamping to two true samples bracketing [x] can only shrink the
    error.

    {b Merging.} {!merge} adds bucket counts pairwise, so it is exact,
    commutative and (on counts) associative — merging per-worker
    histograms loses nothing. ([sum] is a float total, so its
    {e associativity} is up to rounding; counts, min and max are
    bit-exact under any merge tree.)

    A plain [t] is {b not} domain-safe: fields are unsynchronized.
    Either confine each [t] to one domain or use the registered
    per-domain API below. *)

type t

val create : ?alpha:float -> ?lo:float -> ?hi:float -> unit -> t
(** [create ()] makes an empty histogram. [alpha] is the relative
    accuracy (default [0.01]), [lo] the lowest trackable value in
    seconds (default [1e-9]), [hi] the highest (default [1e4]).
    Raises [Invalid_argument] unless [0 < alpha < 1] and
    [0 < lo < hi]. *)

val record : t -> float -> unit
(** [record t v] adds one sample. Negative and NaN values are clamped
    to [0] (underflow). O(1); not domain-safe (see above and the
    sgr-lint [obs-domain-discipline] rule). *)

val count : t -> int
val sum : t -> float

val min_value : t -> float option
(** Exact smallest recorded sample; [None] when empty. *)

val max_value : t -> float option
(** Exact largest recorded sample; [None] when empty. *)

val alpha : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh histogram holding both sample sets; [a] and
    [b] are unchanged. Raises [Invalid_argument] if the two geometries
    ([alpha], [lo], [hi]) differ. *)

val quantile : t -> float -> float option
(** [quantile t q] for [0 <= q <= 1]; [None] when empty. Nearest-rank
    estimate with the relative error bound documented above; monotone
    in [q]. Raises [Invalid_argument] if [q] is outside [[0, 1]]. *)

val clear : t -> unit
(** Zero every bucket and statistic (geometry is kept). *)

val nonzero_buckets : t -> (float * int) list
(** Non-empty buckets as [(inclusive_upper_bound, count)] in increasing
    bound order; the underflow bucket reports bound [lo] and the
    overflow bucket [infinity]. For exposition renderers. *)

(** {1 Registered per-domain histograms}

    The registered API mirrors {!Obs.counter}: {!histogram} interns a
    handle by name, and {!observe} records into a {e per-domain shard}
    reached through [Domain.DLS] — the same discipline as the Dijkstra
    workspaces — so the hot path takes no lock and worker domains never
    contend. A shard is created (and registered under the handle's
    mutex) the first time a domain observes a given name; after that,
    recording is a DLS read, a hashtable probe and a plain increment.

    {!snapshot} merges the shards {e deterministically in slot order}
    (increasing domain id), so given the same shard contents it always
    returns the same histogram — including the float [sum], whose
    addition order is fixed. Reading shards while other domains are
    still recording is safe but may observe a torn in-between state;
    snapshots taken after a {!Sgr_par.Pool} barrier (every [Pool.map]
    return) are exact, because the pool join gives the reader a
    happens-before edge over all worker writes. *)

type reg

val histogram : ?alpha:float -> ?lo:float -> ?hi:float -> string -> reg
(** [histogram name] returns the handle registered under [name],
    creating it on first use (idempotent, like {!Obs.counter}). The
    optional geometry applies only on first registration. *)

val reg_name : reg -> string

val observe : reg -> float -> unit
(** Record into the calling domain's shard — lock-free after the
    shard's first use, and safe from [Pool.map] worker closures. *)

val snapshot : reg -> t
(** Merge the handle's shards in slot order into a fresh plain [t]. *)

val snapshots : unit -> (string * t) list
(** Snapshot of every registered histogram, sorted by name. *)

val reset : unit -> unit
(** Clear every shard of every registered histogram (handles stay
    registered). Call at quiescence — e.g. between test runs, not
    while a pool batch is in flight. *)
