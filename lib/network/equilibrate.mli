(** Path-equilibration front end.

    Repeatedly moves flow from the costliest {e used} path to the
    cheapest path of each commodity, equalizing the pair by bisection on
    the shifted amount (only the symmetric difference of the two paths
    matters). Each shift strictly decreases the convex objective, so the
    sweep converges; the stopping rule is the Wardrop gap itself.

    {!solve} is column generation ({!Column_gen}): it prices paths on
    demand with Dijkstra and keeps only a small active column set per
    commodity, so it scales to networks whose simple-path count is
    exponential (e.g. large grids). The exhaustive oracle that
    enumerates every simple path up front is
    [Column_gen.solve_on_paths obj net ~paths:(Network.paths net)];
    only tests and bench T8 call it, and it inherits
    {!Sgr_graph.Paths.enumerate}'s 20,000-path cap. *)

type solution = Column_gen.solution = {
  edge_flow : float array;  (** Per-edge flow at termination. *)
  path_flows : float array array;
      (** Per-commodity path flows, aligned with [paths]. *)
  paths : Sgr_graph.Paths.t array array;
      (** The path sets the solver worked over: the priced active
          columns under column generation, every simple path under the
          exhaustive oracle. *)
  sweeps : int;  (** Number of full commodity sweeps performed. *)
  gap : float;
      (** Max over commodities of (costliest used path − cheapest path)
          under the objective's edge values at termination. *)
}

val solve : ?tol:float -> ?max_sweeps:int -> Objective.t -> Network.t -> solution
(** [solve obj net] runs {!Column_gen.solve} until [gap <= tol] (default
    [1e-9]) or [max_sweeps] (default [200_000]) sweeps, inside an
    [equilibrate.solve] span. *)

val verify :
  ?eps:float -> Objective.t -> Network.t -> solution -> bool
(** Post-hoc Wardrop/optimality check: every used path's cost is within
    [eps] of its commodity's minimum path cost {e over the solution's
    path set}. *)

val commodity_gap :
  Objective.t -> Network.t -> edge_flow:float array ->
  paths:Sgr_graph.Paths.t array -> flows:float array -> float
(** Gap of a single commodity at the given edge flow. *)
