module L = Sgr_latency.Latency
module G = Sgr_graph
module Tol = Sgr_numerics.Tolerance

type commodity = { src : int; dst : int; demand : float }

type t = {
  graph : G.Digraph.t;
  latencies : L.t array;
  commodities : commodity array;
}

(* The index of the first commodity (below [limit]) whose sink its
   source cannot reach, or [limit]: one breadth-first search per
   distinct source, which stops once the sinks of that source's
   commodities are all reached. [seen.(v)] and [wanted.(v)] hold the
   first commodity (in source order) of the search that reached v,
   or that waits for v, so no array is reset between searches. *)
let first_unreachable graph commodities ~limit =
  let n = G.Digraph.num_nodes graph in
  let off = G.Digraph.out_offsets graph and ids = G.Digraph.out_edge_ids graph in
  let dst = G.Digraph.edge_targets graph in
  let order = Array.init limit Fun.id in
  Array.stable_sort (fun i j -> Int.compare commodities.(i).src commodities.(j).src) order;
  let seen = Array.make n (-1) and wanted = Array.make n (-1) and queue = Array.make n 0 in
  let cancel = Sgr_obs.Cancel.handle () in
  let first = ref limit and g = ref 0 in
  while !g < limit do
    (* Between searches, so validating a large instance respects the
       deadline. *)
    Sgr_obs.Cancel.check ();
    let src = commodities.(order.(!g)).src and stamp = !g in
    let h = ref !g and pending = ref 0 in
    while !h < limit && commodities.(order.(!h)).src = src do
      Sgr_obs.Cancel.check_handle cancel;
      let t = commodities.(order.(!h)).dst in
      if wanted.(t) <> stamp then begin
        wanted.(t) <- stamp;
        incr pending
      end;
      incr h
    done;
    let reach v =
      seen.(v) <- stamp;
      if wanted.(v) = stamp then decr pending
    in
    reach src;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !pending > 0 && !head < !tail do
      Sgr_obs.Cancel.check_handle cancel;
      let u = queue.(!head) in
      incr head;
      for k = off.(u) to off.(u + 1) - 1 do
        let v = dst.(ids.(k)) in
        if seen.(v) <> stamp then begin
          reach v;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    for k = !g to !h - 1 do
      let i = order.(k) in
      if seen.(commodities.(i).dst) <> stamp then first := Int.min !first i
    done;
    g := !h
  done;
  !first

(* Whether node 0 reaches every node and every node reaches node 0, so
   every node reaches every other: one breadth-first search along the
   edges and one against them. On such a graph no commodity is cut
   off. *)
let strongly_connected graph =
  let n = G.Digraph.num_nodes graph in
  let seen = Array.make n 0 and queue = Array.make n 0 in
  let cancel = Sgr_obs.Cancel.handle () in
  let covers stamp off ids ends =
    seen.(0) <- stamp;
    queue.(0) <- 0;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      Sgr_obs.Cancel.check_handle cancel;
      let u = queue.(!head) in
      incr head;
      for k = off.(u) to off.(u + 1) - 1 do
        let v = ends.(ids.(k)) in
        if seen.(v) <> stamp then begin
          seen.(v) <- stamp;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !tail = n
  in
  covers 1 (G.Digraph.out_offsets graph) (G.Digraph.out_edge_ids graph)
    (G.Digraph.edge_targets graph)
  && covers 2 (G.Digraph.in_offsets graph) (G.Digraph.in_edge_ids graph)
       (G.Digraph.edge_sources graph)

let make graph ~latencies ~commodities =
  if Array.length latencies <> G.Digraph.num_edges graph then
    invalid_arg "Network.make: one latency per edge required";
  if Array.length commodities = 0 then invalid_arg "Network.make: no commodities";
  (* The commodities are checked in order, each demand, then endpoints,
     then reachability: the first commodity that fails names the error.
     A strongly connected graph cuts none off; on any other, the
     per-source searches find the first that is. *)
  let n = G.Digraph.num_nodes graph in
  let local c =
    if not (Float.is_finite c.demand && c.demand >= 0.0) then
      Some "Network.make: demand must be finite and nonnegative"
    else if c.src = c.dst then Some "Network.make: source equals destination"
    else if c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n then
      Some "Network.make: commodity endpoint out of range"
    else None
  in
  let k = Array.length commodities in
  let bad =
    Option.value (Array.find_index (fun c -> Option.is_some (local c)) commodities) ~default:k
  in
  if (not (strongly_connected graph)) && first_unreachable graph commodities ~limit:bad < bad then
    invalid_arg "Network.make: destination unreachable from source";
  match if bad < k then local commodities.(bad) else None with
  | Some m -> invalid_arg m
  | None -> { graph; latencies; commodities }

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
   particular no reachability search. This sits in the
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
