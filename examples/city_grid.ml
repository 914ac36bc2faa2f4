(* A small "city" road network: a 4x4 directed grid with randomized BPR
   latencies, one commodity from the NW to the SE corner.

   Shows the library end to end on a non-toy network: both equilibrium
   solvers (path equilibration and Frank-Wolfe) agree on the Nash flow;
   MOP computes the price of optimum and an optimal Leader strategy whose
   induced equilibrium is verified to cost C(O). A second, 10x10 grid
   has C(18,9) = 48620 corner-to-corner paths — far past the 20,000-path
   enumeration cap — and runs through the column-generation engine. *)

module Net = Sgr_network.Network
module Solver = Sgr_assign.Solver
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module Vec = Sgr_numerics.Vec

let () =
  let rng = Sgr_numerics.Prng.create 42 in
  let net = Sgr_workloads.Workloads.grid_network rng ~rows:4 ~cols:4 ~demand:3.0 () in
  Format.printf "4x4 grid, %d edges, demand 3.0@.@."
    (Sgr_graph.Digraph.num_edges net.Net.graph);

  let nash_pe = Eq.solve Obj.Wardrop net in
  let nash_fw = Solver.solve ~tol:1e-10 ~max_iter:100_000 Obj.Wardrop net in
  Format.printf "Wardrop flow: path-equilibration (%d sweeps, gap %.2e)@." nash_pe.sweeps
    nash_pe.gap;
  Format.printf "              Frank-Wolfe        (%d iters,  gap %.2e)@." nash_fw.iterations
    nash_fw.relative_gap;
  Format.printf "              max |Δedge flow| between solvers = %.2e@.@."
    (Vec.linf_dist nash_pe.edge_flow nash_fw.edge_flow);

  let opt = Eq.solve Obj.System_optimum net in
  let cn = Net.cost net nash_pe.edge_flow and co = Net.cost net opt.edge_flow in
  Format.printf "C(N) = %.6f, C(O) = %.6f, price of anarchy = %.6f@.@." cn co (cn /. co);

  let mop = Stackelberg.Mop.run net in
  Format.printf "MOP: β_G = %.6f (leader flow %.6f of 3.0)@." mop.beta (3.0 *. mop.beta);
  Format.printf "Induced cost C(S+T) = %.6f  -> ratio to optimum %.8f@." mop.induced.cost
    (mop.induced.cost /. co);
  Format.printf "Residual follower Wardrop gap: %.2e@." mop.induced.wardrop_gap;
  let rep = mop.per_commodity.(0) in
  Format.printf "Leader uses %d paths, followers keep %.6f free flow on shortest paths@.@."
    (List.length rep.leader_paths) rep.free_flow;

  (* Past the enumeration limit: 48620 simple paths, a handful of
     priced columns. *)
  let big = Sgr_workloads.Workloads.grid_network rng ~rows:10 ~cols:10 ~demand:5.0 () in
  let nash = Eq.solve Obj.Wardrop big in
  let opt_big = Eq.solve Obj.System_optimum big in
  let cn = Net.cost big nash.edge_flow and co = Net.cost big opt_big.edge_flow in
  Format.printf "10x10 grid (48620 s-t paths): column generation used %d columns@."
    (Array.length nash.paths.(0));
  Format.printf "C(N) = %.6f, C(O) = %.6f, price of anarchy = %.6f@." cn co (cn /. co);
  let mop_big = Stackelberg.Mop.run big in
  Format.printf "MOP at scale: β_G = %.6f, C(S+T)/C(O) = %.8f@." mop_big.beta
    (mop_big.induced.cost /. co)
