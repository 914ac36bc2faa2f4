(** Column-generation path equilibration.

    Instead of enumerating every simple path (exponential on grids, and
    hard-capped by {!Sgr_graph.Paths.enumerate}), the solver keeps a
    small {e active} column set per commodity: it equalizes flow on the
    active columns with the pairwise-shift inner loop, then {e prices}
    new columns by running Dijkstra on the current edge values — the
    latencies for a Wardrop equilibrium, the marginals for the system
    optimum — and admits the shortest path whenever it undercuts the
    cheapest active column by more than [tol]. Convergence is declared
    when no commodity prices a new column, at which point every used
    column's cost is within [tol] of a network-wide shortest path, i.e.
    the true Wardrop (resp. optimality) gap is at most [tol].

    This is the engine behind {!Equilibrate.solve}. {!solve_on_paths}
    over {!Network.paths} is the exhaustive oracle that tests and bench
    T8 cross-check it against on small instances. *)

type solution = {
  edge_flow : float array;
  path_flows : float array array;
  paths : Sgr_graph.Paths.t array array;
  sweeps : int;
  gap : float;
}
(** Re-exported, with field documentation, as {!Equilibrate.solution}. *)

val solve :
  ?tol:float ->
  ?max_sweeps:int ->
  ?max_rounds:int ->
  Objective.t ->
  Network.t ->
  solution
(** [solve obj net] runs pricing rounds until no commodity admits a new
    column (or [max_rounds], default [1_000], rounds elapse), keeping
    the total equalization sweeps across all rounds under [max_sweeps]
    (default [200_000]). [gap] in the result is the true residual gap —
    costliest used column against the network-wide Dijkstra shortest
    path — not merely the active-set gap.

    Counters: [column_gen.pricing_rounds], [column_gen.columns], and
    the shared [equilibrate.sweeps]. Span: [column_gen.solve]. Trace
    points are emitted per pricing round under solver ["column_gen"]
    (with [step] = columns admitted that round) and per inner sweep
    under solver ["equilibrate"]. *)

val solve_on_paths :
  ?tol:float ->
  ?max_sweeps:int ->
  Objective.t ->
  Network.t ->
  paths:Sgr_graph.Paths.t array array ->
  solution
(** Equalize on a fixed caller-provided path set — the exhaustive
    oracle when [paths] is the full enumeration. Initialization order,
    sweep counts, and bisections match the historical
    [Equilibrate.solve] exactly. *)

val commodity_gap :
  Objective.t ->
  Network.t ->
  edge_flow:float array ->
  paths:Sgr_graph.Paths.t array ->
  flows:float array ->
  float
(** Gap of a single commodity at the given edge flow, relative to the
    cheapest path in [paths]. *)

val path_value :
  (Sgr_latency.Latency.t -> float -> float) ->
  Network.t ->
  float array ->
  Sgr_graph.Paths.t ->
  float
(** Sum of [value latency flow] along a path at the given edge flow. *)

val diff_edges : int list -> int list -> int list
(** [diff_edges a b] is the edges of [a] not in [b], preserving [a]'s
    order; membership in [b] is a binary search over a sorted copy. *)
