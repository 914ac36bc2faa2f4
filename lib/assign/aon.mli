(** Batched all-or-nothing assignment on the CSR graph.

    One Dijkstra tree per *distinct* commodity source (commodities
    sharing a source share a tree), fanned over the ambient worker pool;
    demand accumulation walks each commodity's predecessor chain
    sequentially in commodity order, so the resulting edge flow is
    byte-identical at any [--jobs]. Paths are never materialized: the
    whole assignment lives in the predecessor arrays.

    Each tree is a targeted {!Sgr_graph.Dijkstra.run}: it stops once
    the sinks of its source's commodities are settled. The predecessor
    entries on those sinks' chains, the only ones the walk reads, are
    then final, so the flow is bit-for-bit the one full trees give. On
    the 10^4-edge synthetic city (32 commodities, 32 sources) this cuts
    a Frank–Wolfe solve from 13.12M edge relaxations to 8.41M. *)

type plan
(** Source-grouping of a network's commodities — the distinct sources
    and, per source, the sinks its tree must settle — computed once per
    solve and reused every iteration. *)

val plan : Sgr_network.Network.t -> plan

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
    [weights] (ties broken by the deterministic Dijkstra tree). The
    shortest-path trees run on the pool ([jobs] defaults to the ambient
    pool width); accumulation is sequential in commodity order.
    [record], when given, receives each commodity's routed path (edge
    ids, source to sink) — the only way paths ever materialize here,
    and only for callers that ask. Checkpoints the per-domain deadline
    between trees and commodities.
    @raise Invalid_argument when a commodity's sink is unreachable. *)
