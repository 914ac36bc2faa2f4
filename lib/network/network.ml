module L = Sgr_latency.Latency
module G = Sgr_graph
module Tol = Sgr_numerics.Tolerance

type commodity = { src : int; dst : int; demand : float }

type t = {
  graph : G.Digraph.t;
  latencies : L.t array;
  commodities : commodity array;
}

let make graph ~latencies ~commodities =
  if Array.length latencies <> G.Digraph.num_edges graph then
    invalid_arg "Network.make: one latency per edge required";
  if Array.length commodities = 0 then invalid_arg "Network.make: no commodities";
  let weights = Array.make (G.Digraph.num_edges graph) 0.0 in
  let workspace = G.Dijkstra.workspace () in
  Array.iter
    (fun c ->
      (* Check between the searches so validating a large instance
         respects the deadline. *)
      Sgr_obs.Cancel.check ();
      if not (Float.is_finite c.demand && c.demand >= 0.0) then
        invalid_arg "Network.make: demand must be finite and nonnegative";
      if c.src = c.dst then invalid_arg "Network.make: source equals destination";
      let r = G.Dijkstra.run ~workspace ~targets:[| c.dst |] graph ~weights ~source:c.src in
      if not (r.dist.(c.dst) < Float.infinity) then
        invalid_arg "Network.make: destination unreachable from source")
    commodities;
  { graph; latencies; commodities }

let single graph ~latencies ~src ~dst ~demand =
  make graph ~latencies ~commodities:[| { src; dst; demand } |]

let total_demand t = Array.fold_left (fun acc c -> acc +. c.demand) 0.0 t.commodities

let cost t f =
  let acc = ref 0.0 in
  Array.iteri (fun e fe -> acc := !acc +. L.cost t.latencies.(e) fe) f;
  !acc

let beckmann t f =
  let acc = ref 0.0 in
  Array.iteri (fun e fe -> acc := !acc +. L.primitive t.latencies.(e) fe) f;
  !acc

let edge_latencies t f = Array.mapi (fun e fe -> L.eval t.latencies.(e) fe) f
let edge_marginals t f = Array.mapi (fun e fe -> L.marginal t.latencies.(e) fe) f

let shift t s =
  assert (Array.length s = G.Digraph.num_edges t.graph);
  let latencies = Array.mapi (fun e lat -> L.shift (Tol.clamp_nonneg s.(e)) lat) t.latencies in
  { t with latencies }

let with_commodities t commodities = make t.graph ~latencies:t.latencies ~commodities

(* Demand replacement cannot break the [make] invariants (the topology,
   endpoints, and reachability are untouched), so no revalidation — in
   particular no per-commodity reachability Dijkstra. This sits in the
   innermost loop of [Induced.equilibrium]. *)
let with_demands t demands =
  if Array.length demands <> Array.length t.commodities then
    invalid_arg "Network.with_demands: one demand per commodity required";
  let commodities =
    Array.mapi
      (fun i c ->
        let d = demands.(i) in
        if not (Float.is_finite d && d >= 0.0) then
          invalid_arg "Network.with_demands: demand must be finite and nonnegative";
        { c with demand = d })
      t.commodities
  in
  { t with commodities }

let paths t =
  Array.map
    (fun c ->
      (* [Paths.enumerate] is exponential in the graph; at minimum the
         deadline must be honoured between commodities. *)
      Sgr_obs.Cancel.check ();
      Array.of_list (G.Paths.enumerate t.graph ~src:c.src ~dst:c.dst))
    t.commodities

let path_flows_to_edges t per_commodity =
  let all_paths = paths t in
  let flow = Array.make (G.Digraph.num_edges t.graph) 0.0 in
  Array.iteri
    (fun i flows ->
      Array.iteri
        (fun j amount -> List.iter (fun e -> flow.(e) <- flow.(e) +. amount) all_paths.(i).(j))
        flows)
    per_commodity;
  flow
