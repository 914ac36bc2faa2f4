(** Single-source shortest paths with nonnegative edge weights.

    MOP (the paper's algorithm for networks) needs, for each commodity,
    both the distance labels under optimum-induced edge costs and the
    subgraph of edges lying on *some* shortest s–t path (footnote 5).
    The latter is characterized by
    [dist_from_s(src e) + w e + dist_to_t(dst e) = dist_from_s(t)].

    The kernel iterates the graph's CSR adjacency (see
    {!Digraph.out_offsets}) and can run inside a caller-owned
    {!workspace}, in which case repeated runs on the same graph perform
    no allocation — column-generation pricing does one run per
    commodity per round, and {!shortest_edge_subgraph} does two — and a
    run's cost is what it touches: a workspace resets only the nodes
    its previous run labeled, not all n of them.

    A forward run may stop early, once a given set of target nodes is
    settled ({!run}'s [?targets]), and may be goal-directed toward one
    sink ({!run}'s [?goal]: A* on a potential built by {!goal}), in
    which case a known upper bound on the sink's distance keeps every
    node past it out of the heap ({!run}'s [?upper]). The reverse run
    behind a potential stops once the sources it serves are settled.
    {!shortest_edge_subgraph} reads every label, so its two runs are
    always full. Every run adds its edge relaxations and heap pushes to
    the [dijkstra.relaxations] and [dijkstra.heap_pushes] counters, once
    per run; a settled node that relaxes its edges counts them all.

    A run keeps the node it is settling at the heap's root while it
    relaxes the node's edges, and its first push replaces it there
    ({!Heap.replace}), so a node that pushes costs one sift down, not a
    pop's and then a push's. Equal keys may pop in another order than
    with a pop before each node's pushes; no label depends on that
    order (see the tie rule below), only the work of a run that stops
    early.

    Ties are canonical. When a relaxation reaches [dist(v)] bit for bit
    while [v] is not yet settled, [pred(v)] moves to the smaller edge
    id. With positive weights every tied in-neighbour of [v] is settled
    before [v], so [pred(v)] is the smallest edge id among the tied
    in-edges, and a tree depends on the graph and the weights alone —
    not on the order the heap pops equal keys in, nor on whether the run
    is goal-directed. The "not yet settled" guard keeps every [pred]
    edge pointing back to an earlier-settled node, so [pred] chains are
    acyclic even across zero-weight edges. *)

type result = {
  dist : float array;  (** [dist.(v)] — distance from the source; [infinity] if unreachable. *)
  pred : int array;
      (** [pred.(v)] — id of the edge entering [v] on one shortest path,
          or [-1] for the source and unreachable nodes. *)
}

(** {1 Workspaces} *)

type workspace
(** Reusable scratch state: dist/pred/settled/target-mark arrays, the
    list of nodes the last run labeled, plus the heap.
    A workspace adapts to whatever graph it is run on (it reallocates
    when the node count changes); reusing one across runs on the same
    graph allocates nothing, the returned {!result} included. Each run
    first resets the nodes the previous one labeled, and only those, so
    every entry reads as in a fresh workspace ([infinity] / [-1] where
    this run did not reach). Not domain-safe: use one workspace per
    domain (e.g. via [Domain.DLS]) in parallel code. The search reads
    the workspace's arrays without bounds checks, trusting the node
    lists its own runs leave, so two domains sharing one can corrupt
    memory, not only the result. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh empty workspace; [hint] presizes the heap. *)

type goal
(** An A* potential toward one sink ({!val-goal}, at the end), valid
    for every run whose weights are at or above the lower bounds it was
    built from. *)

(** {1 Runs}

    [validate] (default [false]) checks every weight is nonnegative
    before running and raises [Invalid_argument] otherwise — an O(m)
    scan that solver inner loops skip; tests and entry points handling
    untrusted data should pass [~validate:true].

    When [?workspace] is supplied, the returned {!result} {e aliases}
    the workspace arrays: it is valid until the workspace's next run.
    Without it a fresh workspace is allocated per call. A run on a
    workspace that already fits the graph allocates nothing. *)

val run :
  ?validate:bool -> ?workspace:workspace -> ?targets:int array -> ?goal:goal ->
  ?upper:float array -> Digraph.t -> weights:float array -> source:int -> result
(** Dijkstra from [source]. [weights] is indexed by edge id.

    Without [targets] the run settles every node reachable from
    [source], and every entry of the result is final.

    With [targets] the run stops as soon as the last distinct node of
    [targets] is settled, before relaxing that node's edges (duplicates,
    the source itself and unreachable nodes are allowed; an unreachable
    target makes the run a full one, and [[||]] settles only the source).
    Until it stops, the run does exactly what the full run does, so:
    - every target's [dist] and [pred] are final, and so are those of
      every node on its [pred] chain back to [source] — a path read
      from them is bit-for-bit the one the full tree gives;
    - so is every node whose distance is below the last target's;
    - any other entry may be tentative (a finite overestimate) or
      still [infinity]/[-1].

    The searches behind {!shortest_path}, column-generation pricing and
    all-or-nothing assignment pass their sinks here. On the 10^4-edge
    synthetic city (2,501 nodes, 32 commodities with 32 distinct
    sources) a Frank–Wolfe solve to gap 1e-4 relaxes 8.20M edges with
    plain targeted trees instead of 12.8M with full ones.

    With [goal] (and no [targets]) the run is an A* search toward the
    goal's sink, keyed on [dist + π]. It stops once the sink is settled,
    and the sink's chain reads bit for bit as in [run ~targets:[| sink |]]:
    the same [dist] and [pred] on every node of it. It settles far fewer
    nodes. Nodes off that chain may hold other labels. [weights] must be
    at or above the goal's lower bounds ([~validate:true] checks it); if
    a key passes the goal's bound the run is redone plain, and counted
    in the [dijkstra.goal_fallbacks] counter.

    [upper] (with [goal] only) holds in [upper.(0)] an upper bound on
    the sink's distance under [weights], say the cost of any path to it
    summed from the source. A labeled node whose key exceeds it,
    inflated by a relative [(n + 2)·4·epsilon_float], is never pushed:
    the sink pops with key [dist(sink)], keys pop in nondecreasing
    order, so such a node would not be settled before the sink, and the
    sink's chain is unchanged. The bound is read from an array, so a
    call boxes no float; [infinity] prunes nothing. The plain rerun of a
    fallback does not prune.
    @raise Invalid_argument when [weights] does not hold one entry per
    edge, when [source] is not a node ("Dijkstra.run: source 5 is not a
    node (the graph has 3)"), when a target is out of range, when
    [upper] holds no entry, when both [targets] and [goal] are given,
    when [upper] is given without [goal], or when [goal] was built for
    a graph with another node count. Each is checked before the run
    marks a target or labels a node, so none leaves a mark in the
    workspace that a later run would see. {!run_reverse}, {!shortest_path} and
    {!shortest_edge_subgraph} check the length of [weights] the same
    way, first, and then their own nodes by name ([sink], [src],
    [dst]). The search loop reads its arrays without bounds checks:
    these checks, the graph's own adjacency and the workspace's sizing
    are what keep every index it uses in range. *)

val run_reverse :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> sink:int ->
  result
(** Distances *to* [sink] (Dijkstra on the reversed graph);
    [pred.(v)] is the edge leaving [v] on a shortest path to the sink.
    Always a full run.
    @raise Invalid_argument when [weights] does not hold one entry per
    edge or [sink] is not a node. *)

val shortest_path :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> src:int ->
  dst:int -> int list option
(** Edge ids of one shortest [src]–[dst] path (in path order), or [None]
    if unreachable. The search stops once [dst] is settled ([run
    ~targets:[| dst |]]); the path is the one the full tree gives.
    @raise Invalid_argument when [weights] does not hold one entry per
    edge or [src] or [dst] is not a node, and when the predecessor
    chain of [dst] does not reach [src] within n - 1 edges, the most a
    simple path has: a cycle, which only negative weights (unvalidated)
    can close. *)

val shortest_edge_subgraph :
  ?eps:float -> ?validate:bool -> ?workspaces:workspace * workspace -> Digraph.t ->
  weights:float array -> src:int -> dst:int -> bool array
(** [b.(e)] is true iff edge [e] lies on some shortest [src]–[dst] path,
    up to additive slack [eps] (default {!Sgr_numerics.Tolerance.check_eps})
    to absorb solver noise in the weights. [workspaces] is the
    (forward, reverse) scratch pair for the two underlying runs.
    @raise Invalid_argument as {!shortest_path} does. *)

(** {1 Goal-directed search} *)

val goal : ?workspace:workspace -> Digraph.t -> lower:float array -> sink:int -> goal
(** [goal g ~lower ~sink] runs one full reverse search from [sink] under
    [lower] and keeps the distances, scaled by (1 − 1e-9), as the
    potential π. Under weights [w ≥ lower] (edgewise) every edge then
    keeps a reduced cost [w − π(u) + π(v)] of at least [1e-9·lower(e)]
    — a consistent potential with a margin. The margin outweighs the
    rounding of the heap keys [dist + π] while they stay below
    [K = 1e-9·min lower / (4·epsilon_float)]; a run whose keys pass [K]
    reruns plain (see {!run}). Latencies that never decrease with flow
    make the free-flow latencies ℓₑ(0) such a bound for a whole
    Frank–Wolfe solve, under the Wardrop and the marginal-cost weights
    alike. Holds [num_nodes g] floats.
    @raise Invalid_argument when [sink] is not a node, or unless [lower]
    has one positive entry per edge. *)

val goals :
  ?workspace:workspace -> Digraph.t -> lower:float array -> sinks:int array ->
  sources:int array array -> goal array
(** [goals g ~lower ~sinks ~sources] builds one goal per sink, as {!goal}
    does, with a single scan of [lower] for all of them and a deadline
    checkpoint before each reverse search, which stops once every node
    of [sources.(i)] is settled, at distance R (the largest of theirs).
    Every node it did not settle gets R: π = (1 − 1e-9)·min(d, R), still
    consistent with the same margin, and exact on every node nearer than
    R. A goal stays valid for any source; only the work of a run from a
    source past R grows. When some source cannot reach its sink the
    search is a full one, as in {!goal}.
    @raise Invalid_argument as {!goal} does, or when [sources] and
    [sinks] differ in length, or when some sink or source is not a
    node. *)

(** {1 The heap} *)

(** The kernel's priority queue, a 4-ary min-heap of [(priority, int
    payload)] pairs. It lives in this module so that builds that inline
    nothing across modules (dev builds compile with [-opaque]) still
    inline both of its sifts into the search loop.

    Stale entries are the caller's (lazy deletion), so only [insert],
    [pop]/[pop_min], [replace] and [clear] are needed. Keys and
    payloads are kept in parallel [int array]s: inserting allocates
    only when the heap grows, a cleared heap refills allocation-free,
    and no store goes through the GC write barrier.

    Each priority is keyed on its integer image {!key_of_float}, which
    orders nonnegative floats exactly as the floats compare, so ties
    are the floats' ties. A pop reads all four children of each level
    and picks the first smallest with integer compares and masks, no
    branch; the slots past the last entry hold [max_int], so a missing
    child never wins. *)
module Heap : sig
  type t

  val create : ?hint:int -> unit -> t
  (** Fresh empty heap. [hint] sizes the first capacity allocation (the
      heap still grows past it on demand). *)

  val is_empty : t -> bool
  val size : t -> int

  val key_of_float : float -> int
  (** The integer image of a priority: for [x >= 0] (after [x +. 0.0]
      folds [-0.0] into [+0.0]) the bits of [x] minus 2{^62}, plus 1. It
      is strictly increasing on nonnegative floats, infinity included,
      and lies strictly between [min_int] and [max_int]. Every negative
      or nan [x] maps to [min_int]; a search makes one only from
      negative weights, which break its contract. *)

  val insert : t -> float array -> int -> unit
  (** [insert h keys v] pushes payload [v] at priority [keys.(v)], read
      once, at the call: later writes to [keys] do not move the entry.
      The sifts read and write the heap's own arrays without bounds
      checks; the read of [keys.(v)] is the one checked access.
      @raise Invalid_argument when [v] is not an index of [keys] (a
      negative [v] included), before the heap changes: every payload in
      the heap is therefore nonnegative. *)

  val pop : t -> int
  (** Removes the payload with the smallest priority and returns it, or
      [-1] when the heap is empty. Allocation-free — the hot-path
      variant of {!pop_min}.

      The decisions are those of a swap-based 4-ary heap, ties
      included: a child moves up only when strictly smaller than the
      entry sinking past it, and of equal children the first wins. So
      equal priorities pop in an order fixed by the insert/pop history
      alone. No search result depends on it: {!run} breaks distance ties
      by edge id, so with positive weights the shortest-path trees, and
      every all-or-nothing flow read from them, are functions of the
      graph and the weights alone. *)

  val replace : t -> float array -> int -> int
  (** [replace h keys v] is [pop h] followed by [insert h keys v], done
      in one sift: [v] takes the root's slot and sifts down, making the
      decisions of a swap-based 4-ary heap's replace-top, ties included
      (so equal priorities can pop in another order than after a pop
      and an insert). Returns the popped payload; on an empty heap it
      pushes [v] and returns [-1]. The search keeps a node at the root
      while it relaxes the node's edges and settles it with such a
      replace at its first push.
      @raise Invalid_argument when [v] is not an index of [keys], read
      first, as in {!insert}: the heap is left as it was. *)

  val pop_min : t -> (float * int) option
  (** Like {!pop}, also reporting the priority, bit for bit as pushed
      when it was nonnegative and not [-0.0] (which pops as [0.0]); a
      negative priority pops as [neg_infinity]. Allocates the returned
      option. *)

  val clear : t -> unit
  (** Empty the heap, keeping its capacity, so the next fill does not
      reallocate. Costs one store per entry it drops. *)
end
