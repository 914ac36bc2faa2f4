type edge = { id : int; src : int; dst : int }

type t = {
  num_nodes : int;
  (* CSR adjacency: [out_ids.(out_off.(v)) .. out_ids.(out_off.(v+1)-1)]
     are the ids of v's outgoing edges in insertion order (same for the
     in-side), and [edge_src]/[edge_dst] are the flat endpoint arrays,
     indexed by edge id. Edge records are made on demand from them. *)
  edge_src : int array;
  edge_dst : int array;
  out_off : int array;
  out_ids : int array;
  in_off : int array;
  in_ids : int array;
}

(* Endpoints as the builder collects them, in two growable arrays. *)
type builder = { n : int; mutable srcs : int array; mutable dsts : int array; mutable count : int }

let max_nodes = 1 lsl 20

let check_nodes num_nodes =
  if num_nodes <= 0 then invalid_arg "Digraph.builder: need at least one node";
  if num_nodes > max_nodes then invalid_arg "Digraph.builder: more nodes than max_nodes"

let check_edge n ~src ~dst =
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Digraph.add_edge: endpoint out of range";
  if src = dst then invalid_arg "Digraph.add_edge: self loops are not allowed"

let builder ~num_nodes =
  check_nodes num_nodes;
  { n = num_nodes; srcs = [||]; dsts = [||]; count = 0 }

let add_edge b ~src ~dst =
  check_edge b.n ~src ~dst;
  if b.count = Array.length b.srcs then begin
    let grow a = Array.append a (Array.make (max 8 b.count) 0) in
    b.srcs <- grow b.srcs;
    b.dsts <- grow b.dsts
  end;
  b.srcs.(b.count) <- src;
  b.dsts.(b.count) <- dst;
  b.count <- b.count + 1;
  b.count - 1

(* Counting sort of edge ids by [key]: offsets, then a fill pass in
   insertion order so each node's slice preserves edge-id order. *)
let csr_of ~n ~m ~key =
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    off.(key.(e) + 1) <- off.(key.(e) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let ids = Array.make m 0 in
  let cursor = Array.copy off in
  for e = 0 to m - 1 do
    let v = key.(e) in
    ids.(cursor.(v)) <- e;
    cursor.(v) <- cursor.(v) + 1
  done;
  (off, ids)

(* The graph of checked endpoint arrays it owns: edge [e] is
   [edge_src.(e) -> edge_dst.(e)]. *)
let make n ~edge_src ~edge_dst =
  let m = Array.length edge_src in
  let out_off, out_ids = csr_of ~n ~m ~key:edge_src in
  let in_off, in_ids = csr_of ~n ~m ~key:edge_dst in
  { num_nodes = n; edge_src; edge_dst; out_off; out_ids; in_off; in_ids }

let freeze b =
  make b.n ~edge_src:(Array.sub b.srcs 0 b.count) ~edge_dst:(Array.sub b.dsts 0 b.count)

let of_arrays ~num_nodes ~srcs ~dsts =
  check_nodes num_nodes;
  if Array.length srcs <> Array.length dsts then
    invalid_arg "Digraph.of_arrays: one target per source";
  Array.iteri (fun e src -> check_edge num_nodes ~src ~dst:dsts.(e)) srcs;
  make num_nodes ~edge_src:srcs ~edge_dst:dsts

let of_edges ~num_nodes pairs =
  let b = builder ~num_nodes in
  List.iter (fun (src, dst) -> ignore (add_edge b ~src ~dst)) pairs;
  freeze b

let num_nodes t = t.num_nodes
let num_edges t = Array.length t.edge_src

let edge t i =
  if i < 0 || i >= num_edges t then invalid_arg "Digraph.edge: id out of range";
  { id = i; src = t.edge_src.(i); dst = t.edge_dst.(i) }

let edges t = Array.init (num_edges t) (edge t)

let fold_edges f t init =
  let acc = ref init in
  for i = 0 to num_edges t - 1 do
    acc := f (edge t i) !acc
  done;
  !acc

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
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges" t.num_nodes (num_edges t);
  Array.iteri
    (fun id src -> Format.fprintf ppf "@,  e%d: %d -> %d" id src t.edge_dst.(id))
    t.edge_src;
  Format.fprintf ppf "@]"
