module G = Sgr_graph
module L = Sgr_latency.Latency
module Network = Sgr_network.Network
module Obs = Sgr_obs.Obs

let c_calls = Obs.counter "assign.aon_calls"
let c_trees = Obs.counter "assign.dijkstra_trees"

(* One Dijkstra workspace per domain: tree builds fan over the pool and
   each worker reuses its own scratch arrays across iterations. Results
   alias the workspace, so every tree reads its sinks' chains out before
   the workspace is reused. Held as an option so that passing it as
   [?workspace] allocates nothing. *)
let ws_key = Domain.DLS.new_key (fun () -> Some (G.Dijkstra.workspace ()))

(* One Dijkstra tree: a distinct commodity source and, as its targets,
   the sinks of the commodities it serves. [goal] is the A* potential
   toward a tree's only sink. Both are options built once, so that a
   tree's run allocates nothing. [sinks] lists the sink of each
   commodity the tree serves, in commodity order; after a run, sink j's
   chain (its path's edge ids, sink to source) is [chain.(start.(j))
   .. chain.(stop.(j) - 1)], or [stop.(j) = -1] when the run did not
   reach it. [chain] grows on demand and is reused across calls. *)
type tree = {
  source : int;
  targets : int array option;
  goal : G.Dijkstra.goal option;
  sinks : int array;
  start : int array;
  stop : int array;
  mutable chain : int array;
}

type plan = {
  trees : tree array;  (* by ascending source *)
  tree_of : int array;  (* commodity index -> index into [trees] *)
  slot_of : int array;  (* commodity index -> its index in its tree's [sinks] *)
  free_flow : float array;  (* ℓₑ(0) when the trees may be goal-directed, else [||] *)
}

(* The free-flow latencies bound every later AON weight from below only
   if no latency decreases with flow; [Custom] ones are opaque.
   [Latency.shift] never nests [Shifted], so one level is all there is. *)
let nondecreasing l =
  match L.kind l with L.Custom _ | L.Shifted { base = L.Custom _; _ } -> false | _ -> true

(* ℓₑ(0) for every edge, or [||] when the instance must run plain: some
   latency is opaque, or some free-flow weight is not positive (the
   potential's margin is a multiple of it). *)
let free_flow_weights (net : Network.t) =
  let lats = net.Network.latencies in
  if not (Array.for_all nondecreasing lats) then [||]
  else
    let w = Array.map (fun l -> L.eval l 0.0) lats in
    if Array.for_all (fun x -> x > 0.0) w then w else [||]

let plan (net : Network.t) =
  let g = net.Network.graph in
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
  let served = Array.make (Array.length sources) 0 in
  let slot_of = Array.make (Array.length ks) 0 in
  for i = 0 to Array.length ks - 1 do
    let t = tree_of.(i) in
    slot_of.(i) <- served.(t);
    served.(t) <- served.(t) + 1;
    sinks.(t) <- ks.(i).Network.dst :: sinks.(t)
  done;
  let free_flow = free_flow_weights net in
  (* One potential per distinct sink of a single-sink tree. A tree with
     several sinks runs plain: the nearest-sink bound is weak. *)
  let ws = G.Dijkstra.workspace () in
  let goals = Hashtbl.create 16 in
  let goal_toward sink =
    match Hashtbl.find_opt goals sink with
    | Some goal -> goal
    | None ->
        let goal = G.Dijkstra.goal ~workspace:ws g ~lower:free_flow ~sink in
        Hashtbl.replace goals sink goal;
        goal
  in
  let trees =
    Array.mapi
      (fun t source ->
        (* Per-tree checkpoint: a tree may cost a full reverse run. *)
        Sgr_obs.Cancel.check ();
        let sinks = Array.of_list (List.rev sinks.(t)) in
        let k = Array.length sinks in
        let goal =
          if Array.length free_flow > 0 && Array.for_all (fun s -> s = sinks.(0)) sinks then
            Some (goal_toward sinks.(0))
          else None
        in
        {
          source;
          targets = Some sinks;
          goal;
          sinks;
          start = Array.make k 0;
          stop = Array.make k (-1);
          chain = Array.make (16 * k) 0;
        })
      sources
  in
  { trees; tree_of; slot_of; free_flow }

let num_trees p = Array.length p.trees

(* [true] iff no weight is below its free-flow value: the potentials
   hold. The solver's weights always pass; a caller's own may not. *)
let above_free_flow p weights =
  let ok = ref true in
  for e = 0 to Array.length p.free_flow - 1 do
    if weights.(e) < p.free_flow.(e) then ok := false
  done;
  !ok

(* Read each sink's chain out of a tree's predecessor edges, sink to
   source, into the tree's own buffer. A sink the run did not reach
   gets [stop = -1]. *)
let keep_chains tree ~pred ~edge_src =
  let cancel = Sgr_obs.Cancel.handle () in
  let len = ref 0 in
  for j = 0 to Array.length tree.sinks - 1 do
    tree.start.(j) <- !len;
    let v = ref tree.sinks.(j) and reached = ref true in
    while !reached && !v <> tree.source do
      Sgr_obs.Cancel.check_handle cancel;
      let e = pred.(!v) in
      if e < 0 then reached := false
      else begin
        if !len = Array.length tree.chain then begin
          let grown = Array.make (2 * !len) 0 in
          Array.blit tree.chain 0 grown 0 !len;
          tree.chain <- grown
        end;
        tree.chain.(!len) <- e;
        incr len;
        v := edge_src.(e)
      end
    done;
    tree.stop.(j) <- (if !reached then !len else -1)
  done

let assign ?jobs ?record p (net : Network.t) ~weights ~into =
  Obs.incr c_calls;
  let g = net.Network.graph in
  let m = G.Digraph.num_edges g in
  if Array.length into <> m then invalid_arg "Aon.assign: flow array has the wrong length";
  Array.fill into 0 m 0.0;
  let edge_src = G.Digraph.edge_sources g in
  let directed = Array.length p.free_flow > 0 && above_free_flow p weights in
  (* Phase 1 — trees on the pool: deterministic per source, each keeping
     its sinks' chains in its own buffers, so the chains are independent
     of the job count. Goal-directed and plain runs agree bit for bit on
     every sink's chain, and the chains are read on the domain that ran
     the tree, before its workspace is reused. *)
  Sgr_par.Pool.map ?jobs
    (fun tree ->
      (* Per-tree checkpoint: free on a disarmed domain; on the
         sequential fallback it keeps a large batch pre-emptible
         between Dijkstras. *)
      Sgr_obs.Cancel.check ();
      Obs.incr c_trees;
      let workspace = Domain.DLS.get ws_key in
      (* The tree stops once its sinks are settled: their predecessor
         chains are then final. *)
      let r =
        if directed && Option.is_some tree.goal then
          G.Dijkstra.run ?workspace ?goal:tree.goal g ~weights ~source:tree.source
        else G.Dijkstra.run ?workspace ?targets:tree.targets g ~weights ~source:tree.source
      in
      keep_chains tree ~pred:r.G.Dijkstra.pred ~edge_src)
    p.trees
  |> ignore;
  (* Phase 2 — sequential accumulation in commodity order: add each
     commodity's demand along its chain, sink to source. *)
  let cancel = Sgr_obs.Cancel.handle () in
  Array.iteri
    (fun i (c : Network.commodity) ->
      Sgr_obs.Cancel.check_handle cancel;
      let tree = p.trees.(p.tree_of.(i)) and j = p.slot_of.(i) in
      let stop = tree.stop.(j) in
      if stop < 0 then
        invalid_arg
          (Printf.sprintf "Aon.assign: commodity %d cannot reach node %d from node %d" i
             c.Network.dst c.Network.src);
      let chain = tree.chain in
      let edges = ref [] in
      for k = tree.start.(j) to stop - 1 do
        let e = chain.(k) in
        into.(e) <- into.(e) +. c.Network.demand;
        (* The chain runs sink to source, so consing yields the path in
           source-to-sink edge order. Only collected when asked for. *)
        if record <> None then edges := e :: !edges
      done;
      match record with None -> () | Some f -> f ~commodity:i ~path:!edges)
    net.Network.commodities
