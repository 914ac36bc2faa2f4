(** Multicommodity routing instances [(G, r)] (paper, Section 4).

    A directed graph with a latency function per edge and [k]
    source–destination commodities, each with its own demand. Flows are
    represented both per edge (unique at equilibrium/optimum for strictly
    increasing latencies) and per path (used by the high-accuracy solver
    and by Stackelberg strategies). *)

type commodity = { src : int; dst : int; demand : float }

type t = private {
  graph : Sgr_graph.Digraph.t;
  latencies : Sgr_latency.Latency.t array;  (** Indexed by edge id. *)
  commodities : commodity array;
}

val make :
  Sgr_graph.Digraph.t -> latencies:Sgr_latency.Latency.t array -> commodities:commodity array -> t
(** Checks reachability first for the whole graph: one breadth-first
    search from node 0 along the edges and one against them tell
    whether it is strongly connected, and then every commodity's sink
    is reachable. Only when it is not does [make] run one breadth-first
    search per distinct commodity source, stopping once that source's
    sinks are reached, to name the first commodity cut off.
    @raise Invalid_argument on size mismatch, no commodities, a negative
    or non-finite demand, a commodity whose source is its destination or
    whose endpoint is not a node, or an unreachable commodity pair; with
    several bad commodities, the first in order names the error. *)

val single : Sgr_graph.Digraph.t -> latencies:Sgr_latency.Latency.t array ->
  src:int -> dst:int -> demand:float -> t
(** Single-commodity convenience wrapper. *)

val total_demand : t -> float

(** {1 Edge-flow functionals} *)

val cost : t -> float array -> float
(** Total cost [C(f) = Σ_e f_e·ℓ_e(f_e)] of an edge flow. *)

val beckmann : t -> float array -> float
(** Beckmann–McGuire–Winsten potential [Σ_e ∫₀^{f_e} ℓ_e], whose minimizers
    are exactly the Wardrop equilibria. *)

val edge_latencies : t -> float array -> float array
(** Per-edge latency at the given edge flow. *)

val edge_marginals : t -> float array -> float array
(** Per-edge marginal cost at the given edge flow. *)

val shift : t -> float array -> t
(** [shift t s] replaces every [ℓ_e] by [x ↦ ℓ_e(s_e + x)] — the network a
    Follower sees once a Leader has fixed edge flows [s]. Demands are
    unchanged; adjust them separately. *)

val with_commodities : t -> commodity array -> t
(** Revalidates through {!make} (including its reachability searches);
    use {!with_demands} when only the demands change. *)

val with_demands : t -> float array -> t
(** [with_demands t d] replaces commodity [i]'s demand by [d.(i)].
    Topology and endpoints are untouched, so no revalidation runs — this
    is the cheap constructor for inner loops that resize demands, e.g.
    {!Induced.equilibrium}.
    @raise Invalid_argument on size mismatch or a negative or non-finite
    demand. *)

(** {1 Path sets} *)

val paths : t -> Sgr_graph.Paths.t array array
(** [paths t].(i) — every simple path of commodity [i], enumerated once
    and cached. @raise Failure if a commodity has more than 20k paths. *)

val path_flows_to_edges : t -> float array array -> float array
(** Aggregate per-commodity path flows (aligned with {!paths}) into edge
    flows. *)
