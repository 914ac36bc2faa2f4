type result = { dist : float array; pred : int array }

module Obs = Sgr_obs.Obs

let c_runs = Obs.counter "dijkstra.runs"
let c_relax = Obs.counter "dijkstra.relaxations"

type workspace = {
  mutable size : int;  (* node count the arrays are sized for; 0 = empty *)
  mutable dist : float array;
  mutable pred : int array;
  mutable settled : bool array;
  mutable target : bool array;  (* all false between runs *)
  heap : Heap.t;
}

let workspace ?(hint = 0) () =
  {
    size = 0;
    dist = [||];
    pred = [||];
    settled = [||];
    target = [||];
    heap = Heap.create ~hint ();
  }

(* Size the scratch arrays for an [n]-node graph and reset them. On the
   repeated-run path (same graph) this is three [Array.fill]s and a
   [Heap.clear] — no allocation. *)
let prepare ws n =
  if ws.size <> n then begin
    ws.dist <- Array.make n Float.infinity;
    ws.pred <- Array.make n (-1);
    ws.settled <- Array.make n false;
    ws.target <- Array.make n false;
    ws.size <- n
  end
  else begin
    Array.fill ws.dist 0 n Float.infinity;
    Array.fill ws.pred 0 n (-1);
    Array.fill ws.settled 0 n false
  end;
  Heap.clear ws.heap

let validate_weights weights =
  Array.iter
    (fun w ->
      if not (w >= 0.0) then
        invalid_arg "Dijkstra: edge weights must be nonnegative (and not NaN)")
    weights

(* The kernel, shared by the forward and reverse runs: [off]/[ids] is a
   CSR adjacency (out- or in-) and [other].(e) the endpoint the search
   moves to along edge [e] (dst forward, src reverse). Iterates the flat
   arrays directly — no list cells or closures per settled node.

   With [targets], the search stops right after settling the last
   distinct target, before relaxing its edges. Up to that point it has
   done exactly what the full run does, and settled entries never change
   afterwards, so everything it settled reads bit-for-bit as in the full
   tree. The target marks are cleared before returning. *)
let run_dir ?targets ws ~off ~ids ~other ~weights ~n ~origin =
  Obs.incr c_runs;
  prepare ws n;
  let dist = ws.dist and pred = ws.pred and settled = ws.settled and heap = ws.heap in
  let target = ws.target in
  (* Distinct targets not yet settled; a full run starts at -1, which
     settling never brings to 0. *)
  let pending =
    match targets with
    | None -> ref (-1)
    | Some ts ->
        Array.iter
          (fun t -> if t < 0 || t >= n then invalid_arg "Dijkstra.run: target out of range")
          ts;
        ref
          (Array.fold_left
             (fun k t ->
               if target.(t) then k
               else begin
                 target.(t) <- true;
                 k + 1
               end)
             0 ts)
  in
  let relaxations = ref 0 in
  dist.(origin) <- 0.0;
  Heap.insert heap 0.0 origin;
  let u = ref (Heap.pop heap) in
  while !u >= 0 do
    let u' = !u in
    (* Lazy deletion: skip stale entries. *)
    if not settled.(u') then begin
      settled.(u') <- true;
      if target.(u') then decr pending;
      if !pending = 0 then Heap.clear heap
      else begin
        let du = dist.(u') in
        for k = off.(u') to off.(u' + 1) - 1 do
          let e = ids.(k) in
          let v = other.(e) in
          incr relaxations;
          let nd = du +. weights.(e) in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- e;
            Heap.insert heap nd v
          end
        done
      end
    end;
    u := Heap.pop heap
  done;
  Option.iter (Array.iter (fun t -> target.(t) <- false)) targets;
  (* One batched counter update per run keeps the inner loop free of
     atomic traffic while the count stays exact. *)
  Obs.add c_relax !relaxations;
  { dist; pred }

let run ?(validate = false) ?workspace:ws ?targets g ~weights ~source =
  if validate then validate_weights weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  run_dir ?targets ws
    ~off:(Digraph.out_offsets g) ~ids:(Digraph.out_edge_ids g)
    ~other:(Digraph.edge_targets g) ~weights ~n:(Digraph.num_nodes g) ~origin:source

let run_reverse ?(validate = false) ?workspace:ws g ~weights ~sink =
  if validate then validate_weights weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  run_dir ws
    ~off:(Digraph.in_offsets g) ~ids:(Digraph.in_edge_ids g)
    ~other:(Digraph.edge_sources g) ~weights ~n:(Digraph.num_nodes g) ~origin:sink

let shortest_path ?validate ?workspace g ~weights ~src ~dst =
  let ({ dist; pred } : result) =
    run ?validate ?workspace ~targets:[| dst |] g ~weights ~source:src
  in
  if dist.(dst) = Float.infinity then None
  else begin
    let sources = Digraph.edge_sources g in
    let rec walk v acc =
      if v = src then acc
      else
        let e = pred.(v) in
        if e < 0 then acc (* unreachable; cannot happen when dist is finite *)
        else walk sources.(e) (e :: acc)
    in
    Some (walk dst [])
  end

let shortest_edge_subgraph ?(eps = Sgr_numerics.Tolerance.check_eps) ?validate ?workspaces g
    ~weights ~src ~dst =
  let fwd_ws, bwd_ws =
    match workspaces with Some pair -> pair | None -> (workspace (), workspace ())
  in
  let fwd = run ?validate ~workspace:fwd_ws g ~weights ~source:src in
  let bwd = run_reverse ~workspace:bwd_ws g ~weights ~sink:dst in
  let total = fwd.dist.(dst) in
  let m = Digraph.num_edges g in
  let on_sp = Array.make m false in
  if total < Float.infinity then begin
    let sources = Digraph.edge_sources g and targets = Digraph.edge_targets g in
    for e = 0 to m - 1 do
      let through = fwd.dist.(sources.(e)) +. weights.(e) +. bwd.dist.(targets.(e)) in
      if through < Float.infinity && through <= total +. (eps *. Float.max 1.0 total) then
        on_sp.(e) <- true
    done
  end;
  on_sp
