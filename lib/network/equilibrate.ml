module Obs = Sgr_obs.Obs

type solution = Column_gen.solution = {
  edge_flow : float array;
  path_flows : float array array;
  paths : Sgr_graph.Paths.t array array;
  sweeps : int;
  gap : float;
}

let solve ?tol ?max_sweeps obj net =
  Obs.span "equilibrate.solve" @@ fun () -> Column_gen.solve ?tol ?max_sweeps obj net

let path_value = Column_gen.path_value
let commodity_gap = Column_gen.commodity_gap

let verify ?(eps = Sgr_numerics.Tolerance.check_eps) obj net sol =
  let value = Objective.edge_value obj in
  let ok = ref true in
  Array.iteri
    (fun i ps ->
      let costs = Array.map (path_value value net sol.edge_flow) ps in
      let min_cost = Sgr_numerics.Vec.min_elt costs in
      Array.iteri
        (fun j f ->
          if f > eps && not (Sgr_numerics.Tolerance.approx ~eps costs.(j) min_cost) then
            ok := false)
        sol.path_flows.(i))
    sol.paths;
  !ok
