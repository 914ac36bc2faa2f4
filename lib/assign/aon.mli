(** Batched all-or-nothing assignment on the CSR graph.

    One Dijkstra tree per *distinct* commodity source (commodities
    sharing a source share a tree), fanned over the ambient worker pool.
    Right after its run, on the domain that ran it, a tree copies out
    only its sinks' predecessor chains; demand accumulation then adds
    each commodity's demand along its chain, sequentially in commodity
    order, so the resulting edge flow is byte-identical at any
    [--jobs]. Paths are never materialized as lists unless asked for
    ([?record]). With the workspace resetting only the nodes its
    previous run labeled, a tree costs the part of the graph it
    touches, not the node count.

    Each tree is a targeted {!Sgr_graph.Dijkstra.run}: it stops once
    the sinks of its source's commodities are settled. The predecessor
    entries on those sinks' chains, the only ones the walk reads, are
    then final, so the flow is bit-for-bit the one full trees give.

    A tree with a single sink runs an A* search toward it, on a
    potential the plan builds once per solve: the free-flow distance to
    that sink under the weights ℓₑ(0), from a reverse search that stops
    at the farthest source using the sink (farther nodes get that
    distance). Latencies never decrease with flow, so ℓₑ(0) bounds
    every later weight from below, under the Wardrop and the
    marginal-cost objective alike, and the potential stays valid for
    the whole solve. From its second call on, such a tree pushes no
    node whose key exceeds the cost, at the call's weights, of the
    chain it returned last time: an upper bound on the sink's distance
    (see {!Sgr_graph.Dijkstra.run}'s [?upper]). Dijkstra breaks
    distance ties by edge id, so goal-directed and plain trees give the
    same chains bit for bit and the flow does not depend on which ran.
    On the 10^4-edge synthetic city (32 commodities, 32 sources) a
    Frank–Wolfe solve relaxes 1.08M edges and pushes 0.29M heap
    entries, where plain targeted trees relax 8.20M and full ones 12.8M.
    An instance with a [Custom] latency (also under [Shifted]) or a
    free-flow latency [<= 0] runs every tree plain; so does a call whose
    weights dip below ℓₑ(0) somewhere.

    Allocation-free per call on a reused plan, apart from a few hundred
    bytes of fan-out bookkeeping: each tree's chains land in a buffer
    the plan holds (it grows, rarely, when a longer chain comes along),
    and its pruning bound in a one-element array. The buffers make a
    plan single-use at a time: two concurrent [assign]s must not share
    one. *)

type plan
(** Source-grouping of a network's commodities — the distinct sources
    and, per source, the sinks its tree must settle — plus the
    goal-directed potentials and per-tree chain buffers, computed once
    per solve and reused every iteration. It holds one float per node
    per distinct goal sink, and one int per chain edge. *)

val plan : Sgr_network.Network.t -> plan
(** Runs one reverse Dijkstra per distinct sink of a single-sink tree
    (none when the instance runs plain), each stopping at the farthest
    source that uses the sink, with a deadline checkpoint before each
    and before each tree. *)

val num_trees : plan -> int
(** Number of distinct source nodes, i.e. Dijkstra trees per call. *)

val assign :
  ?jobs:int ->
  ?record:(commodity:int -> path:Sgr_graph.Paths.t -> unit) ->
  plan ->
  Sgr_network.Network.t ->
  weights:float array ->
  into:float array ->
  unit
(** [assign plan net ~weights ~into] zeroes [into] and adds, for every
    commodity, its full demand along a shortest [src]–[dst] path under
    [weights] (ties broken by edge id, see {!Sgr_graph.Dijkstra}). The
    shortest-path trees run on the pool ([jobs] defaults to the ambient
    pool width); accumulation is sequential in commodity order.
    [record], when given, receives each commodity's routed path (edge
    ids, source to sink) — the only way paths ever materialize here,
    and only for callers that ask. Checkpoints the per-domain deadline
    between trees and commodities.
    @raise Invalid_argument when [weights] or [into] does not hold one
    entry per edge, or when the plan was built for a network with
    another commodity count or, if its trees run goal-directed, another
    edge count (all checked before anything is written), or when a
    commodity's sink is unreachable, or when a sink's predecessor chain
    does not reach its source within n - 1 edges, the most a simple
    path has: a cycle, which only negative weights can close (the
    tree's sinks then read as unreached). The trees' chain loops read
    unchecked, on edge ids that these checks keep in range. *)

val unreached : plan -> int option
(** After an {!assign} that raised for an unreachable sink, the first
    commodity (in commodity order, the one the error names) whose sink
    that call's trees did not reach; [None] when they reached every
    sink. *)
