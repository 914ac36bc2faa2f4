let topological_order g =
  let n = Digraph.num_nodes g in
  let indeg = Array.make n 0 in
  Digraph.fold_edges (fun e () -> indeg.(e.Digraph.dst) <- indeg.(e.Digraph.dst) + 1) g ();
  (* A sorted-by-id frontier keeps the order deterministic. *)
  let module IntSet = Set.Make (Int) in
  let frontier = ref IntSet.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then frontier := IntSet.add v !frontier
  done;
  let order = Array.make n 0 in
  let placed = ref 0 in
  while not (IntSet.is_empty !frontier) do
    let v = IntSet.min_elt !frontier in
    frontier := IntSet.remove v !frontier;
    order.(!placed) <- v;
    incr placed;
    Digraph.iter_out g v (fun _ w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then frontier := IntSet.add w !frontier)
  done;
  if !placed = n then Some order else None

let is_dag g = Option.is_some (topological_order g)

let has_cycle_in_support g ~support =
  (* DFS with colors over the supported edges of each CSR slice; the
     first edge into a grey node is a cycle and ends the search. *)
  let n = Digraph.num_nodes g in
  let off = Digraph.out_offsets g and ids = Digraph.out_edge_ids g in
  let dst = Digraph.edge_targets g in
  let color = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let rec visit v =
    color.(v) <- 1;
    let found = ref false and k = ref off.(v) in
    while (not !found) && !k < off.(v + 1) do
      let e = ids.(!k) in
      if support.(e) then begin
        let w = dst.(e) in
        found := color.(w) = 1 || (color.(w) = 0 && visit w)
      end;
      incr k
    done;
    color.(v) <- 2;
    !found
  in
  let found = ref false and v = ref 0 in
  while (not !found) && !v < n do
    if color.(!v) = 0 then found := visit !v;
    incr v
  done;
  !found

let bfs iter g origin =
  let seen = Array.make (Digraph.num_nodes g) false in
  let q = Queue.create () in
  seen.(origin) <- true;
  Queue.push origin q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter g v (fun _ u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          Queue.push u q
        end)
  done;
  seen

let reachable_from g v = bfs Digraph.iter_out g v
let co_reachable_to g v = bfs Digraph.iter_in g v
