type edge = { id : int; src : int; dst : int }

type t = {
  num_nodes : int;
  edges : edge array;
  (* CSR adjacency: [out_ids.(out_off.(v)) .. out_ids.(out_off.(v+1)-1)]
     are the ids of v's outgoing edges in insertion order (same for the
     in-side), and [edge_src]/[edge_dst] are the flat endpoint arrays,
     indexed by edge id. *)
  edge_src : int array;
  edge_dst : int array;
  out_off : int array;
  out_ids : int array;
  in_off : int array;
  in_ids : int array;
}

type builder = { n : int; mutable rev_edges : edge list; mutable count : int }

let max_nodes = 1 lsl 20

let builder ~num_nodes =
  if num_nodes <= 0 then invalid_arg "Digraph.builder: need at least one node";
  if num_nodes > max_nodes then invalid_arg "Digraph.builder: more nodes than max_nodes";
  { n = num_nodes; rev_edges = []; count = 0 }

let add_edge b ~src ~dst =
  if src < 0 || src >= b.n || dst < 0 || dst >= b.n then
    invalid_arg "Digraph.add_edge: endpoint out of range";
  if src = dst then invalid_arg "Digraph.add_edge: self loops are not allowed";
  let e = { id = b.count; src; dst } in
  b.rev_edges <- e :: b.rev_edges;
  b.count <- b.count + 1;
  e.id

(* Counting sort of edge ids by [key]: offsets, then a fill pass in
   insertion order so each node's slice preserves edge-id order. *)
let csr_of ~n ~m ~key =
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    off.(key e + 1) <- off.(key e + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Array.make m 0 in
  let cursor = Array.copy off in
  for e = 0 to m - 1 do
    let v = key e in
    ids.(cursor.(v)) <- e;
    cursor.(v) <- cursor.(v) + 1
  done;
  (off, ids)

let freeze b =
  let edges = Array.of_list (List.rev b.rev_edges) in
  let m = Array.length edges in
  let edge_src = Array.map (fun e -> e.src) edges in
  let edge_dst = Array.map (fun e -> e.dst) edges in
  let out_off, out_ids = csr_of ~n:b.n ~m ~key:(fun e -> edge_src.(e)) in
  let in_off, in_ids = csr_of ~n:b.n ~m ~key:(fun e -> edge_dst.(e)) in
  { num_nodes = b.n; edges; edge_src; edge_dst; out_off; out_ids; in_off; in_ids }

let of_edges ~num_nodes pairs =
  let b = builder ~num_nodes in
  List.iter (fun (src, dst) -> ignore (add_edge b ~src ~dst)) pairs;
  freeze b

let num_nodes t = t.num_nodes
let num_edges t = Array.length t.edges

let edge t i =
  if i < 0 || i >= Array.length t.edges then invalid_arg "Digraph.edge: id out of range";
  t.edges.(i)

let edges t = t.edges
let fold_edges f t init = Array.fold_left (fun acc e -> f e acc) init t.edges
let edge_sources t = t.edge_src
let edge_targets t = t.edge_dst
let out_offsets t = t.out_off
let out_edge_ids t = t.out_ids
let in_offsets t = t.in_off
let in_edge_ids t = t.in_ids

let iter_out t v f =
  for k = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    let e = t.out_ids.(k) in
    f e t.edge_dst.(e)
  done

let iter_in t v f =
  for k = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    let e = t.in_ids.(k) in
    f e t.edge_src.(e)
  done

let pp ppf t =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges" t.num_nodes (Array.length t.edges);
  Array.iter (fun e -> Format.fprintf ppf "@,  e%d: %d -> %d" e.id e.src e.dst) t.edges;
  Format.fprintf ppf "@]"
