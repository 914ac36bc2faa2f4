module G = Sgr_graph
module Network = Sgr_network.Network
module Obs = Sgr_obs.Obs

let c_calls = Obs.counter "assign.aon_calls"
let c_trees = Obs.counter "assign.dijkstra_trees"

(* One Dijkstra workspace per domain: tree builds fan over the pool and
   each worker reuses its own scratch arrays across iterations. Results
   alias the workspace, so every tree copies its predecessor array out
   before the workspace is reused. *)
let ws_key = Domain.DLS.new_key (fun () -> G.Dijkstra.workspace ())

(* One Dijkstra tree: a distinct commodity source and the sinks of the
   commodities it serves, which are the tree's targets. *)
type tree = { source : int; sinks : int array }

type plan = {
  trees : tree array;  (* by ascending source *)
  tree_of : int array;  (* commodity index -> index into [trees] *)
}

let plan (net : Network.t) =
  let ks = net.Network.commodities in
  let srcs = Array.map (fun c -> c.Network.src) ks in
  let sorted = Array.copy srcs in
  Array.sort Int.compare sorted;
  let distinct = ref [] in
  Array.iteri
    (fun i s -> if i = 0 || sorted.(i - 1) <> s then distinct := s :: !distinct)
    sorted;
  let sources = Array.of_list (List.rev !distinct) in
  let index_of s =
    (* why: binary search for the first index with sources.(i) >= s —
       the window halves every pass, so the loop is log-bounded. *)
    let lo = ref 0 and hi = ref (Array.length sources - 1) in
    (while !lo < !hi do
       let mid = (!lo + !hi) / 2 in
       if sources.(mid) < s then lo := mid + 1 else hi := mid
     done)
    [@lint.allow "cancel-coverage"];
    !lo
  in
  let tree_of = Array.map index_of srcs in
  let sinks = Array.make (Array.length sources) [] in
  Array.iteri (fun i c -> sinks.(tree_of.(i)) <- c.Network.dst :: sinks.(tree_of.(i))) ks;
  let trees = Array.mapi (fun t source -> { source; sinks = Array.of_list sinks.(t) }) sources in
  { trees; tree_of }

let num_trees p = Array.length p.trees

let assign ?jobs ?record p (net : Network.t) ~weights ~into =
  Obs.incr c_calls;
  let g = net.Network.graph in
  let m = G.Digraph.num_edges g in
  if Array.length into <> m then invalid_arg "Aon.assign: flow array has the wrong length";
  Array.fill into 0 m 0.0;
  let edge_src = G.Digraph.edge_sources g in
  (* Phase 1 — trees on the pool: deterministic per source, written into
     index slots, so the set of predecessor arrays is independent of the
     job count. *)
  let preds =
    Sgr_par.Pool.map ?jobs
      (fun { source; sinks } ->
        (* Per-tree checkpoint: free on a disarmed domain; on the
           sequential fallback it keeps a large batch pre-emptible
           between Dijkstras. *)
        Sgr_obs.Cancel.check ();
        Obs.incr c_trees;
        (* The tree stops once its sinks are settled: their predecessor
           chains, the only entries read below, are then final. *)
        let r =
          G.Dijkstra.run ~workspace:(Domain.DLS.get ws_key) ~targets:sinks g ~weights ~source
        in
        Array.copy r.G.Dijkstra.pred)
      p.trees
  in
  (* Phase 2 — sequential accumulation in commodity order: walk the
     predecessor chain from sink to source adding the demand. *)
  let cancel = Sgr_obs.Cancel.handle () in
  Array.iteri
    (fun i (c : Network.commodity) ->
      let pred = preds.(p.tree_of.(i)) in
      let v = ref c.Network.dst in
      let edges = ref [] in
      while !v <> c.Network.src do
        Sgr_obs.Cancel.check_handle cancel;
        let e = pred.(!v) in
        if e < 0 then
          invalid_arg
            (Printf.sprintf "Aon.assign: commodity %d cannot reach node %d from node %d" i
               c.Network.dst c.Network.src);
        into.(e) <- into.(e) +. c.Network.demand;
        (* The walk runs sink to source, so consing yields the path in
           source-to-sink edge order. Only collected when asked for. *)
        if record <> None then edges := e :: !edges;
        v := edge_src.(e)
      done;
      match record with None -> () | Some f -> f ~commodity:i ~path:!edges)
    net.Network.commodities
