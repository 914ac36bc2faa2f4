(** Edge-flow traffic assignment: Frank–Wolfe and MSA over flat
    per-edge [float array]s, with the all-or-nothing subproblem batched
    into pool-parallel Dijkstra trees ({!Aon}).

    This is the library's one edge-flow engine. It scales to networks
    with 10^4–10^5 edges: no path is ever enumerated, and the
    per-iteration cost is a handful of Dijkstra trees plus O(m) vector
    work. Results are byte-identical at any [--jobs]. Inner loops
    checkpoint the per-domain deadline ([Sgr_obs.Cancel]), so
    serving-side requests stay pre-emptible. *)

type method_ = Frank_wolfe | Msa

val method_name : method_ -> string
(** ["frank-wolfe"] / ["msa"] — stable labels for CLI and protocol. *)

type trace_point = { k : int; gap : float; objective : float; step : float }
(** One solver iteration: the relative gap and objective {e before} the
    step of size [step] ([0] on the terminating iteration). *)

type solution = {
  edge_flow : float array;  (** Per-edge flow at termination. *)
  iterations : int;
  relative_gap : float;
      (** Frank–Wolfe duality gap [∇φ(f)·(f - y) / |∇φ(f)·f|] at
          termination. *)
  objective : float;  (** Objective value at [edge_flow]. *)
  trace : trace_point list;
      (** Per-iteration convergence trace, oldest first. Empty unless an
          {!Sgr_obs.Obs} sink was installed during the solve. *)
}

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?method_:method_ ->
  ?jobs:int ->
  Sgr_network.Objective.t ->
  Sgr_network.Network.t ->
  solution
(** [solve obj net] minimizes the Beckmann potential ([Wardrop]) or the
    total cost ([System_optimum]) to relative duality gap [tol] (default
    [1e-4]) within [max_iter] iterations (default [10_000]).
    [Frank_wolfe] (default) takes an exact convex line-search step; [Msa]
    uses the 1/(k+1) schedule. [jobs] bounds the Dijkstra-tree fan-out
    (default: ambient pool width).
    @raise Invalid_argument when an edge's latency (for [System_optimum],
    its marginal cost) is not finite at zero flow, naming the edge, or
    when, at some later flow, every path of a commodity crosses an edge
    where it is infinite ("no path of finite latency at the current
    flow", naming the first such commodity): an M/M/1 edge loaded to or
    past its capacity, say, on a network that cannot carry the
    demand. *)

val solve_flows :
  ?tol:float ->
  ?max_iter:int ->
  ?method_:method_ ->
  ?jobs:int ->
  Sgr_network.Objective.t ->
  Sgr_network.Network.t ->
  solution * float array array
(** Like {!solve}, additionally returning the per-commodity split of
    [edge_flow] that {!Decompose.run} needs on multi-commodity
    networks: every AON step routes a commodity down one tree path, so
    the split evolves by the same convex combinations as the aggregate
    (x_i sums to [edge_flow] up to rounding). The [solution] — and in
    particular its [edge_flow] — is byte-identical to {!solve}'s. *)
