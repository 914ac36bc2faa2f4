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
   toward a tree's only sink, and [upper] holds the bound its next run
   prunes on. All three are options built once, so that a tree's run
   allocates nothing. [sinks] lists the sink of each commodity the tree
   serves, in commodity order; after a run, sink j's chain (its path's
   edge ids, sink to source) is [chain.(start.(j)) .. chain.(stop.(j) -
   1)], or [stop.(j) = -1] when the run did not reach it. [chain] grows
   on demand and is reused across calls. *)
type tree = {
  source : int;
  targets : int array option;
  goal : G.Dijkstra.goal option;
  upper : float array option;
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
    let w = Array.make (Array.length lats) 0.0 in
    L.Kernels.fill lats ~marginal:false ~at:w ~into:w;
    if Array.for_all (fun x -> x > 0.0) w then w else [||]

(* The index of the first entry of the ascending array [sorted] at or
   above [x]. *)
let search sorted x =
  (* why: binary search — the window halves every pass, so the loop is
     log-bounded. *)
  let lo = ref 0 and hi = ref (Array.length sorted - 1) in
  (while !lo < !hi do
     let mid = (!lo + !hi) / 2 in
     if sorted.(mid) < x then lo := mid + 1 else hi := mid
   done)
  [@lint.allow "cancel-coverage"];
  !lo

(* The distinct values of [xs], ascending. *)
let distinct xs =
  let sorted = Array.copy xs in
  Array.sort Int.compare sorted;
  let acc = ref [] in
  Array.iteri (fun i x -> if i = 0 || sorted.(i - 1) <> x then acc := x :: !acc) sorted;
  Array.of_list (List.rev !acc)

let plan (net : Network.t) =
  let g = net.Network.graph in
  let ks = net.Network.commodities in
  let srcs = Array.map (fun c -> c.Network.src) ks in
  let sources = distinct srcs in
  let tree_of = Array.map (search sources) srcs in
  let sinks = Array.make (Array.length sources) [] in
  let served = Array.make (Array.length sources) 0 in
  let slot_of = Array.make (Array.length ks) 0 in
  for i = 0 to Array.length ks - 1 do
    let t = tree_of.(i) in
    slot_of.(i) <- served.(t);
    served.(t) <- served.(t) + 1;
    sinks.(t) <- ks.(i).Network.dst :: sinks.(t)
  done;
  let sinks = Array.map (fun l -> Array.of_list (List.rev l)) sinks in
  let free_flow = free_flow_weights net in
  (* A tree whose commodities share one sink runs goal-directed; one
     with several sinks runs plain: the nearest-sink bound is weak. *)
  let goal_sink =
    Array.map
      (fun ts ->
        if Array.length free_flow > 0 && Array.for_all (( = ) ts.(0)) ts then ts.(0) else -1)
      sinks
  in
  (* One potential per distinct goal sink; its reverse run stops once
     the sources of the trees toward it are settled. *)
  let goal_sinks = distinct (Array.of_list (List.filter (( <= ) 0) (Array.to_list goal_sink))) in
  let users = Array.make (Array.length goal_sinks) [] in
  for t = Array.length sources - 1 downto 0 do
    if goal_sink.(t) >= 0 then begin
      let i = search goal_sinks goal_sink.(t) in
      users.(i) <- sources.(t) :: users.(i)
    end
  done;
  let goals =
    if Array.length goal_sinks = 0 then [||]
    else
      G.Dijkstra.goals g ~lower:free_flow ~sinks:goal_sinks ~sources:(Array.map Array.of_list users)
  in
  let trees =
    Array.mapi
      (fun t source ->
        Sgr_obs.Cancel.check ();
        let k = Array.length sinks.(t) in
        let goal =
          if goal_sink.(t) < 0 then None else Some goals.(search goal_sinks goal_sink.(t))
        in
        {
          source;
          targets = Some sinks.(t);
          goal;
          upper = Option.map (fun _ -> [| Float.infinity |]) goal;
          sinks = sinks.(t);
          start = Array.make k 0;
          stop = Array.make k (-1);
          chain = Array.make (16 * k) 0;
        })
      sources
  in
  { trees; tree_of; slot_of; free_flow }

let num_trees p = Array.length p.trees

(* [true] iff no weight is below its free-flow value: the potentials
   hold. The solver's weights always pass; a caller's own may not.
   Unchecked: [assign] has checked that [weights] holds as many entries
   as a nonempty [free_flow]. *)
let above_free_flow p weights =
  let ok = ref true in
  for e = 0 to Array.length p.free_flow - 1 do
    if Array.unsafe_get weights e < Array.unsafe_get p.free_flow e then ok := false
  done;
  !ok
[@@lint.allow "unchecked-access"]

(* Into [upper.(0)]: the cost under [weights] of the chain a
   goal-directed tree's last run returned, summed from the source in the
   order the search sums a distance, so by the monotonicity of rounded
   addition an upper bound on the sink's distance now; infinity when
   there is none (a fresh plan, or a sink the last run did not reach).
   Each tree reads its own chain, so the bound, like the chain, does
   not depend on the job count. A loop on a local: nothing is boxed.
   Unchecked: the chain lies in [start.(0), stop) of the buffer and
   holds edge ids of a network with as many edges as [free_flow] has
   entries (only a goal-directed tree, so only a plan with free-flow
   weights, reads a chain an earlier call wrote), and [assign] has
   checked that [weights] holds as many. *)
let last_chain_cost tree ~weights upper =
  let stop = tree.stop.(0) in
  if stop < 0 then upper.(0) <- Float.infinity
  else begin
    let chain = tree.chain in
    let cost = ref 0.0 in
    for k = stop - 1 downto tree.start.(0) do
      cost := !cost +. Array.unsafe_get weights (Array.unsafe_get chain k)
    done;
    upper.(0) <- !cost
  end
[@@lint.allow "unchecked-access"]

(* Read each sink's chain out of a tree's predecessor edges, sink to
   source, into the tree's own buffer. A sink the run did not reach
   gets [stop = -1].

   A simple path has at most n - 1 edges. A longer chain has closed a
   cycle, which only negative weights can make (a settled node
   relabeled): the walk refuses it, after marking every sink of the
   tree unreached, so that no later call reads a chain this one left
   half written.

   Unchecked: [start], [stop] and [sinks] have one entry per sink; the
   run that filled [pred] (one entry per node) has accepted every sink
   as a target, so each is a node; a [pred] entry is -1 or an edge id,
   and [edge_src] maps an edge id to a node; the buffer grows before
   [len] reaches its length. *)
let keep_chains tree ~pred ~edge_src =
  let cancel = Sgr_obs.Cancel.handle () in
  let longest = Array.length pred - 1 in
  let len = ref 0 in
  for j = 0 to Array.length tree.sinks - 1 do
    Array.unsafe_set tree.start j !len;
    let v = ref (Array.unsafe_get tree.sinks j) and reached = ref true in
    let edges = ref 0 in
    while !reached && !v <> tree.source do
      Sgr_obs.Cancel.check_handle cancel;
      let e = Array.unsafe_get pred !v in
      if e < 0 then reached := false
      else if !edges = longest then begin
        Array.fill tree.stop 0 (Array.length tree.stop) (-1);
        invalid_arg
          (Printf.sprintf
             "Aon.assign: the predecessor chain of node %d does not reach node %d within %d edges \
              (negative weights?)"
             (Array.unsafe_get tree.sinks j) tree.source longest)
      end
      else begin
        incr edges;
        if !len = Array.length tree.chain then begin
          let grown = Array.make (2 * !len) 0 in
          Array.blit tree.chain 0 grown 0 !len;
          tree.chain <- grown
        end;
        Array.unsafe_set tree.chain !len e;
        incr len;
        v := Array.unsafe_get edge_src e
      end
    done;
    Array.unsafe_set tree.stop j (if !reached then !len else -1)
  done
[@@lint.allow "unchecked-access"]

let assign ?jobs ?record p (net : Network.t) ~weights ~into =
  Obs.incr c_calls;
  let g = net.Network.graph in
  let m = G.Digraph.num_edges g in
  if Array.length weights <> m then invalid_arg "Aon.assign: weight array has the wrong length";
  if Array.length into <> m then invalid_arg "Aon.assign: flow array has the wrong length";
  if
    Array.length p.tree_of <> Array.length net.Network.commodities
    || (Array.length p.free_flow > 0 && Array.length p.free_flow <> m)
  then invalid_arg "Aon.assign: the plan was built for another network";
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
        match tree.upper with
        | Some upper when directed ->
            last_chain_cost tree ~weights upper;
            G.Dijkstra.run ?workspace ?goal:tree.goal ?upper:tree.upper g ~weights
              ~source:tree.source
        | _ -> G.Dijkstra.run ?workspace ?targets:tree.targets g ~weights ~source:tree.source
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
      (* Unchecked: [keep_chains] wrote edge ids of this network (below
         [m], the length of [into]) at [start.(j) .. stop - 1]. *)
      (for k = tree.start.(j) to stop - 1 do
         let e = Array.unsafe_get chain k in
         Array.unsafe_set into e (Array.unsafe_get into e +. c.Network.demand);
         (* The chain runs sink to source, so consing yields the path in
            source-to-sink edge order. Only collected when asked for. *)
         if record <> None then edges := e :: !edges
       done)
      [@lint.allow "unchecked-access"];
      match record with None -> () | Some f -> f ~commodity:i ~path:!edges)
    net.Network.commodities

let unreached p =
  let first = ref None in
  for i = Array.length p.tree_of - 1 downto 0 do
    if p.trees.(p.tree_of.(i)).stop.(p.slot_of.(i)) < 0 then first := Some i
  done;
  !first
