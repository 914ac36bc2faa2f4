(* Tests for the graph substrate: construction, Dijkstra, shortest-path
   subgraphs, path enumeration, max-flow and flow decomposition. *)

open Helpers
module G = Sgr_graph
module Heap = G.Dijkstra.Heap
module Prng = Sgr_numerics.Prng

(* The Braess diamond used throughout: s=0, v=1, w=2, t=3. *)
let diamond () = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]

(* Per-node outgoing and incoming edge lists in insertion order, built
   from [Digraph.edges] alone so the oracles below stay independent of
   the CSR layout they check. *)
let adjacency g =
  let outs = Array.make (G.Digraph.num_nodes g) [] in
  let ins = Array.make (G.Digraph.num_nodes g) [] in
  let edges = G.Digraph.edges g in
  for i = Array.length edges - 1 downto 0 do
    let e = edges.(i) in
    outs.(e.src) <- e :: outs.(e.src);
    ins.(e.dst) <- e :: ins.(e.dst)
  done;
  (outs, ins)

let test_build () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (G.Digraph.num_nodes g);
  Alcotest.(check int) "edges" 5 (G.Digraph.num_edges g);
  let e = G.Digraph.edge g 2 in
  Alcotest.(check int) "src" 1 e.src;
  Alcotest.(check int) "dst" 2 e.dst;
  let outs, ins = adjacency g in
  Alcotest.(check int) "out-degree of v" 2 (List.length outs.(1));
  Alcotest.(check int) "in-degree of t" 2 (List.length ins.(3))

let test_build_rejects_self_loop () =
  match G.Digraph.of_edges ~num_nodes:2 [ (0, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self loop must be rejected"

let test_build_rejects_out_of_range () =
  match G.Digraph.of_edges ~num_nodes:2 [ (0, 5) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range endpoint must be rejected"

let test_parallel_edges_allowed () =
  let g = G.Digraph.of_edges ~num_nodes:2 [ (0, 1); (0, 1) ] in
  Alcotest.(check int) "two parallel edges" 2 (G.Digraph.num_edges g)

let test_heap_sorts () =
  let h = Heap.create () in
  let rng = Prng.create 5 in
  let input = Array.init 500 (fun _ -> Prng.float rng) in
  Array.iteri (fun i _ -> Heap.insert h input i) input;
  Alcotest.(check int) "size" 500 (Heap.size h);
  let prev = ref Float.neg_infinity in
  let rec drain n =
    match Heap.pop_min h with
    | None -> Alcotest.(check int) "drained all" 500 n
    | Some (p, _) ->
        check_true "nondecreasing" (p >= !prev);
        prev := p;
        drain (n + 1)
  in
  drain 0

let test_heap_clear_reuse () =
  let h = Heap.create ~hint:8 () in
  let rng = Prng.create 7 in
  let fill_and_drain () =
    let input = Array.init 100 (fun _ -> Prng.float rng) in
    Array.iteri (fun i _ -> Heap.insert h input i) input;
    Alcotest.(check int) "size after fill" 100 (Heap.size h);
    let prev = ref Float.neg_infinity in
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Heap.pop_min h with
      | None -> continue := false
      | Some (p, _) ->
          check_true "nondecreasing" (p >= !prev);
          prev := p;
          incr n
    done;
    Alcotest.(check int) "drained all" 100 !n
  in
  fill_and_drain ();
  (* Refill after clear must behave like a fresh heap. *)
  Heap.insert h [| 0.0; 1.0; 2.0 |] 1;
  Heap.insert h [| 0.0; 1.0; 2.0 |] 2;
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.size h);
  check_true "empty after clear" (Heap.is_empty h);
  Alcotest.(check bool) "pop on cleared" true (Heap.pop_min h = None);
  Alcotest.(check int) "pop sentinel on cleared" (-1) (Heap.pop h);
  fill_and_drain ()

(* A textbook swap-based 4-ary heap, the pop-order oracle: [Heap]'s
   hole-moving, branch-free sifts must make the same comparisons, so
   they must pop the same (priority, payload) sequence, ties included.
   The children of [i] are [4i + 1 .. 4i + 4]; an entry sinking from
   the root swaps with the first smallest child while it is strictly
   smaller. A pop sinks the last entry; a replace sinks the new one in
   the root's place. *)
module Swap_heap = struct
  type t = { mutable prios : float array; mutable payloads : int array; mutable len : int }

  let create () = { prios = Array.make 16 0.0; payloads = Array.make 16 0; len = 0 }

  let swap h i j =
    let p = h.prios.(i) and d = h.payloads.(i) in
    h.prios.(i) <- h.prios.(j);
    h.payloads.(i) <- h.payloads.(j);
    h.prios.(j) <- p;
    h.payloads.(j) <- d

  let insert h prio payload =
    if h.len = Array.length h.prios then begin
      h.prios <- Array.append h.prios h.prios;
      h.payloads <- Array.append h.payloads h.payloads
    end;
    h.prios.(h.len) <- prio;
    h.payloads.(h.len) <- payload;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.prios.((!i - 1) / 4) > h.prios.(!i) do
      swap h ((!i - 1) / 4) !i;
      i := (!i - 1) / 4
    done

  let sink_root h =
    let i = ref 0 and continue = ref true in
    while !continue do
      let s = ref (-1) in
      for c = (4 * !i) + 1 to min ((4 * !i) + 4) (h.len - 1) do
        if !s < 0 || h.prios.(c) < h.prios.(!s) then s := c
      done;
      if !s >= 0 && h.prios.(!s) < h.prios.(!i) then (swap h !s !i; i := !s)
      else continue := false
    done

  let pop_min h =
    if h.len = 0 then None
    else begin
      let top = (h.prios.(0), h.payloads.(0)) in
      h.len <- h.len - 1;
      h.prios.(0) <- h.prios.(h.len);
      h.payloads.(0) <- h.payloads.(h.len);
      sink_root h;
      Some top
    end

  let replace h prio payload =
    if h.len = 0 then (insert h prio payload; None)
    else begin
      let top = (h.prios.(0), h.payloads.(0)) in
      h.prios.(0) <- prio;
      h.payloads.(0) <- payload;
      sink_root h;
      Some top
    end
end

(* Inserts, replaces and pops mixed, as a search that keeps each node
   at the root while it pushes makes them. *)
let prop_heap_matches_swap_oracle =
  qcheck ~count:200 "heap pops in the swap-based oracle's order, ties included"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 900) in
      let h = Heap.create () and o = Swap_heap.create () in
      (* Priorities from a five-value set: most inserts tie with others. *)
      let tie_prio () = float_of_int (Prng.int rng 5) *. 0.5 in
      let ops = 50 + Prng.int rng 400 in
      let keys = Array.make ops 0.0 in
      let ok = ref true in
      for payload = 0 to ops - 1 do
        match Prng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
            let p = tie_prio () in
            keys.(payload) <- p;
            Heap.insert h keys payload;
            Swap_heap.insert o p payload
        | 4 | 5 | 6 ->
            let p = tie_prio () in
            keys.(payload) <- p;
            let popped = Heap.replace h keys payload in
            let expected = Option.fold ~none:(-1) ~some:snd (Swap_heap.replace o p payload) in
            if popped <> expected then ok := false
        | _ -> if Heap.pop_min h <> Swap_heap.pop_min o then ok := false
      done;
      (* Drain both. *)
      while not (Heap.is_empty h) do
        if Heap.pop_min h <> Swap_heap.pop_min o then ok := false
      done;
      !ok && Swap_heap.pop_min o = None)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Nonnegative floats of every kind: zeros, subnormals, normals across
   the exponent range, the extremes and infinity. *)
let nonneg_float rng =
  match Prng.int rng 8 with
  | 0 -> 0.0
  | 1 -> Float.min_float *. Prng.float rng (* subnormal *)
  | 2 -> Prng.float rng
  | 3 -> Float.ldexp (Prng.float rng) (Prng.int rng 2_098 - 1_074)
  | 4 -> Float.max_float
  | 5 -> Float.infinity
  | 6 -> float_of_int (Prng.int rng 5) *. 0.5
  | _ -> Float.ldexp 1.0 (Prng.int rng 2_046 - 1_022)

(* The heap compares integer images, so the image must order every pair
   of nonnegative floats exactly as the floats compare: strictly
   increasing, with -0.0 and +0.0 one key, and [min_int]/[max_int] (a
   negative key, the slots past the end) outside the range. *)
let prop_heap_key_order =
  qcheck ~count:500 "heap keys: the integer image is strictly increasing on nonnegative floats"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 2_300) in
      let inside x =
        let k = Heap.key_of_float x in
        k > min_int && k < max_int
      in
      let agree x y =
        let kx = Heap.key_of_float x and ky = Heap.key_of_float y in
        Int.compare kx ky = Float.compare x y && inside x && inside y
      in
      (* Neighbours: each float against the next one up. *)
      let fixed =
        [ 0.0; Float.min_float; Float.pred Float.min_float; Float.succ 0.0; 1.0; Float.max_float ]
      in
      let adjacent x = x = Float.infinity || agree x (Float.succ x) in
      let x = nonneg_float rng and y = nonneg_float rng in
      agree x y && adjacent x && adjacent y
      && List.for_all adjacent fixed
      && Heap.key_of_float (-0.0) = Heap.key_of_float 0.0
      && Heap.key_of_float (-.Float.min_float) = min_int
      && Heap.key_of_float (-1.0) = min_int
      && Heap.key_of_float Float.max_float < Heap.key_of_float Float.infinity)

(* [pop_min] reports each pushed priority bit for bit, whether the
   entry went in by [insert] or by [replace]: the image is inverted
   exactly. Every entry leaves once, popped or replaced. *)
let prop_heap_pops_pushed_bits =
  qcheck ~count:200 "heap: pop_min returns each pushed float bit for bit" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 2_700) in
      let keys = Array.init (1 + Prng.int rng 200) (fun _ -> nonneg_float rng) in
      let h = Heap.create () in
      (* About a third of the entries go in by [replace], each in the
         place of the smallest entry, which then pops no more. *)
      let gone = Array.make (Array.length keys) false in
      Array.iteri
        (fun v _ ->
          if Prng.int rng 3 = 0 then begin
            let u = Heap.replace h keys v in
            if u >= 0 then gone.(u) <- true
          end
          else Heap.insert h keys v)
        keys;
      let ok = ref true in
      let rec drain () =
        match Heap.pop_min h with
        | None -> ()
        | Some (p, v) ->
            if gone.(v) || not (same_bits p keys.(v)) then ok := false;
            gone.(v) <- true;
            drain ()
      in
      drain ();
      !ok && Array.for_all Fun.id gone)

let test_csr_matches_adjacency_lists () =
  let g = diamond () in
  let off = G.Digraph.out_offsets g and ids = G.Digraph.out_edge_ids g in
  Alcotest.(check int) "offset array length" (G.Digraph.num_nodes g + 1) (Array.length off);
  Alcotest.(check int) "flat ids cover all edges" (G.Digraph.num_edges g) (Array.length ids);
  let outs, ins = adjacency g in
  for v = 0 to G.Digraph.num_nodes g - 1 do
    let from_list = List.map (fun (e : G.Digraph.edge) -> e.id) outs.(v) in
    let from_csr = ref [] in
    G.Digraph.iter_out g v (fun e _ -> from_csr := e :: !from_csr);
    Alcotest.(check (list int)) "out edges agree" from_list (List.rev !from_csr);
    let from_list = List.map (fun (e : G.Digraph.edge) -> e.id) ins.(v) in
    let from_csr = ref [] in
    G.Digraph.iter_in g v (fun e _ -> from_csr := e :: !from_csr);
    Alcotest.(check (list int)) "in edges agree" from_list (List.rev !from_csr)
  done;
  Array.iter
    (fun (e : G.Digraph.edge) ->
      Alcotest.(check int) "edge_sources" e.src (G.Digraph.edge_sources g).(e.id);
      Alcotest.(check int) "edge_targets" e.dst (G.Digraph.edge_targets g).(e.id))
    (G.Digraph.edges g)

let test_dijkstra_diamond () =
  let g = diamond () in
  let weights = [| 1.0; 4.0; 0.5; 4.0; 1.0 |] in
  let r = G.Dijkstra.run g ~weights ~source:0 in
  approx "dist t" 2.5 r.dist.(3);
  approx "dist v" 1.0 r.dist.(1);
  approx "dist w" 1.5 r.dist.(2);
  match G.Dijkstra.shortest_path g ~weights ~src:0 ~dst:3 with
  | Some [ 0; 2; 4 ] -> ()
  | Some p -> Alcotest.failf "wrong path: %s" (String.concat "," (List.map string_of_int p))
  | None -> Alcotest.fail "path must exist"

let test_dijkstra_unreachable () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1) ] in
  let r = G.Dijkstra.run g ~weights:[| 1.0 |] ~source:0 in
  check_true "unreachable is infinite" (r.dist.(2) = Float.infinity);
  Alcotest.(check (option (list int))) "no path" None
    (G.Dijkstra.shortest_path g ~weights:[| 1.0 |] ~src:0 ~dst:2)

let test_dijkstra_reverse () =
  let g = diamond () in
  let weights = [| 1.0; 4.0; 0.5; 4.0; 1.0 |] in
  let r = G.Dijkstra.run_reverse g ~weights ~sink:3 in
  approx "dist from s to t" 2.5 r.dist.(0);
  approx "dist from v" 1.5 r.dist.(1);
  approx "dist from w" 1.0 r.dist.(2)

let test_dijkstra_validate_negative () =
  let g = diamond () in
  let bad = [| 1.0; 4.0; -0.5; 4.0; 1.0 |] in
  (match G.Dijkstra.run ~validate:true g ~weights:bad ~source:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weight must be rejected when validating");
  (match G.Dijkstra.run ~validate:true g ~weights:[| 1.0; Float.nan; 0.5; 4.0; 1.0 |] ~source:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN weight must be rejected when validating");
  (* The check is opt-in: well-formed weights pass with it on. *)
  let r = G.Dijkstra.run ~validate:true g ~weights:[| 1.0; 4.0; 0.5; 4.0; 1.0 |] ~source:0 in
  approx "validated run still correct" 2.5 r.dist.(3)

let test_dijkstra_workspace_reuse () =
  let ws = G.Dijkstra.workspace () in
  let g = diamond () in
  let weights = [| 1.0; 4.0; 0.5; 4.0; 1.0 |] in
  (* Repeated runs in one workspace: the second must not see state from
     the first (different source, then different weights). *)
  let r1 = G.Dijkstra.run ~workspace:ws g ~weights ~source:0 in
  approx "first run" 2.5 r1.dist.(3);
  let r2 = G.Dijkstra.run ~workspace:ws g ~weights ~source:1 in
  approx "second run, new source" 1.5 r2.dist.(3);
  check_true "source unreachable from v" (r2.dist.(0) = Float.infinity);
  let r3 = G.Dijkstra.run ~workspace:ws g ~weights:[| 1.0; 1.0; 1.0; 1.0; 1.0 |] ~source:0 in
  approx "third run, new weights" 2.0 r3.dist.(3);
  (* The same workspace adapts to a graph of a different size. *)
  let g2 = G.Digraph.of_edges ~num_nodes:2 [ (0, 1) ] in
  let r4 = G.Dijkstra.run ~workspace:ws g2 ~weights:[| 7.0 |] ~source:0 in
  approx "smaller graph" 7.0 r4.dist.(1);
  let r5 = G.Dijkstra.run ~workspace:ws g ~weights ~source:0 in
  approx "back to the diamond" 2.5 r5.dist.(3);
  match G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:0 ~dst:3 with
  | Some [ 0; 2; 4 ] -> ()
  | _ -> Alcotest.fail "workspace shortest_path must match the fresh run"

let test_shortest_subgraph () =
  let g = diamond () in
  let weights = [| 1.0; 4.0; 0.5; 4.0; 1.0 |] in
  let on_sp = G.Dijkstra.shortest_edge_subgraph g ~weights ~src:0 ~dst:3 in
  Alcotest.(check (array bool)) "only s→v→w→t" [| true; false; true; false; true |] on_sp

let test_shortest_subgraph_ties () =
  (* Two equal-cost parallel routes: all edges are on a shortest path. *)
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let on_sp = G.Dijkstra.shortest_edge_subgraph g ~weights:[| 1.0; 1.0; 1.0; 1.0 |] ~src:0 ~dst:3 in
  Alcotest.(check (array bool)) "all tied" [| true; true; true; true |] on_sp

let test_enumerate_paths () =
  let g = diamond () in
  let paths = G.Paths.enumerate g ~src:0 ~dst:3 in
  Alcotest.(check int) "three simple paths" 3 (List.length paths);
  List.iter (fun p -> check_true "valid" (G.Paths.is_valid g ~src:0 ~dst:3 p)) paths

let test_enumerate_limit () =
  let g = diamond () in
  match G.Paths.enumerate ~limit:2 g ~src:0 ~dst:3 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "limit must trigger"

let test_path_accessors () =
  let g = diamond () in
  let p = [ 0; 2; 4 ] in
  Alcotest.(check int) "source" 0 (G.Paths.source g p);
  Alcotest.(check int) "target" 3 (G.Paths.target g p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (G.Paths.nodes g p);
  approx "cost" 2.5 (G.Paths.cost p [| 1.0; 4.0; 0.5; 4.0; 1.0 |]);
  check_true "disconnected edge list invalid" (not (G.Paths.is_valid g ~src:0 ~dst:3 [ 0; 4 ]))

let test_maxflow_diamond () =
  let g = diamond () in
  (* Capacities force the classic augment-through-the-middle pattern. *)
  let capacities = [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  let r = G.Maxflow.solve g ~capacities ~src:0 ~dst:3 in
  approx "value" 2.0 r.value;
  check_true "feasible" (G.Flow.is_feasible g ~flow:r.flow ~src:0 ~dst:3 ~demand:r.value)

let test_maxflow_needs_back_edges () =
  (* A graph where a greedy first path must be partially undone. *)
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] in
  let capacities = [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  let r = G.Maxflow.solve g ~capacities ~src:0 ~dst:3 in
  approx "value" 2.0 r.value

let test_maxflow_bottleneck () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1); (1, 2) ] in
  let r = G.Maxflow.solve g ~capacities:[| 5.0; 2.5 |] ~src:0 ~dst:2 in
  approx "value" 2.5 r.value

let test_flow_decompose_roundtrip () =
  let g = diamond () in
  let paths = [ ([ 0; 2; 4 ], 0.46); ([ 0; 3 ], 0.27); ([ 1; 4 ], 0.27) ] in
  let flow = G.Flow.of_paths g paths in
  approx "edge s→v" 0.73 flow.(0);
  let decomposed = G.Flow.decompose g ~flow ~src:0 ~dst:3 in
  let rebuilt = G.Flow.of_paths g decomposed in
  approx_array "decompose ∘ of_paths round trip" flow rebuilt;
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 decomposed in
  approx "total demand preserved" 1.0 total

let test_flow_feasibility () =
  let g = diamond () in
  let flow = G.Flow.of_paths g [ ([ 0; 2; 4 ], 1.0) ] in
  check_true "feasible" (G.Flow.is_feasible g ~flow ~src:0 ~dst:3 ~demand:1.0);
  check_true "wrong demand" (not (G.Flow.is_feasible g ~flow ~src:0 ~dst:3 ~demand:2.0));
  flow.(0) <- flow.(0) +. 0.5;
  check_true "broken conservation" (not (G.Flow.is_feasible g ~flow ~src:0 ~dst:3 ~demand:1.0))

let random_layered_graph rng =
  let layers = 2 + Prng.int rng 3 and width = 1 + Prng.int rng 3 in
  let node l j = 1 + (l * width) + j in
  let sink = 1 + (layers * width) in
  let b = G.Digraph.builder ~num_nodes:(sink + 1) in
  for j = 0 to width - 1 do
    ignore (G.Digraph.add_edge b ~src:0 ~dst:(node 0 j));
    ignore (G.Digraph.add_edge b ~src:(node (layers - 1) j) ~dst:sink)
  done;
  for l = 0 to layers - 2 do
    for j = 0 to width - 1 do
      for j' = 0 to width - 1 do
        ignore (G.Digraph.add_edge b ~src:(node l j) ~dst:(node (l + 1) j'))
      done
    done
  done;
  (G.Digraph.freeze b, sink)

(* An independent shortest-path oracle: Bellman-Ford over edges. *)
let bellman_ford g ~weights ~source =
  let n = G.Digraph.num_nodes g in
  let dist = Array.make n Float.infinity in
  dist.(source) <- 0.0;
  for _ = 1 to n - 1 do
    Array.iter
      (fun (e : G.Digraph.edge) ->
        if dist.(e.src) +. weights.(e.id) < dist.(e.dst) then
          dist.(e.dst) <- dist.(e.src) +. weights.(e.id))
      (G.Digraph.edges g)
  done;
  dist

(* The pre-CSR list-based Dijkstra, kept here as a test-only oracle:
   iterate per-node edge lists with lazy heap deletion, and break exact
   distance ties towards the smaller edge id while the node is not yet
   settled (the kernel's canonical rule). *)
let list_dijkstra g ~weights ~source =
  let n = G.Digraph.num_nodes g in
  let outs, _ = adjacency g in
  let dist = Array.make n Float.infinity in
  let pred = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(source) <- 0.0;
  Heap.insert heap dist source;
  let continue = ref true in
  while !continue do
    match Heap.pop_min heap with
    | None -> continue := false
    | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          List.iter
            (fun (e : G.Digraph.edge) ->
              let nd = d +. weights.(e.id) in
              if nd < dist.(e.dst) then begin
                dist.(e.dst) <- nd;
                pred.(e.dst) <- e.id;
                Heap.insert heap dist e.dst
              end
              else if nd = dist.(e.dst) && e.id < pred.(e.dst) && not settled.(e.dst) then
                pred.(e.dst) <- e.id)
            outs.(u)
        end
  done;
  (dist, pred)

let prop_dijkstra_csr_vs_list_oracle =
  qcheck ~count:100 "CSR dijkstra matches the list-based kernel edge-for-edge" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 500) in
      let g, _ = random_layered_graph rng in
      let weights = Array.init (G.Digraph.num_edges g) (fun _ -> Prng.uniform rng ~lo:0.0 ~hi:5.0) in
      let csr = G.Dijkstra.run g ~weights ~source:0 in
      let dist, pred = list_dijkstra g ~weights ~source:0 in
      (* Same relaxation order (CSR groups preserve insertion order), so
         the runs agree bitwise — distances and chosen predecessor edges. *)
      csr.dist = dist && csr.pred = pred)

(* A random digraph with tie-heavy weights in {0, 1, 2} and one extra
   node that no edge touches, so every target draw can hit an
   unreachable node. *)
let random_tie_graph rng =
  let n = 2 + Prng.int rng 10 in
  let b = G.Digraph.builder ~num_nodes:(n + 1) in
  for _ = 1 to Prng.int rng (3 * n) do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then ignore (G.Digraph.add_edge b ~src:u ~dst:v)
  done;
  let g = G.Digraph.freeze b in
  let weights = Array.init (G.Digraph.num_edges g) (fun _ -> float_of_int (Prng.int rng 3)) in
  (g, weights)

let same_result (a : G.Dijkstra.result) (b : G.Dijkstra.result) =
  Array.for_all2 same_bits a.dist b.dist && a.pred = b.pred

let prop_targeted_dijkstra =
  qcheck ~count:300 "targeted dijkstra: settled chains, shortest paths and reuse are exact"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 700) in
      let g, weights = random_tie_graph rng in
      let n = G.Digraph.num_nodes g in
      let sources = G.Digraph.edge_sources g in
      let source = Prng.int rng (n - 1) in
      (* Random targets, with a duplicate, the source and the isolated
         (unreachable) node thrown in at random. *)
      let targets =
        let ts = List.init (Prng.int rng 4) (fun _ -> Prng.int rng n) in
        let ts = match ts with t :: _ when Prng.bool rng -> t :: ts | _ -> ts in
        let ts = if Prng.bool rng then source :: ts else ts in
        Array.of_list (if Prng.int rng 4 = 0 then (n - 1) :: ts else ts)
      in
      let full = G.Dijkstra.run g ~weights ~source in
      let ws = G.Dijkstra.workspace () in
      let r = G.Dijkstra.run ~workspace:ws ~targets g ~weights ~source in
      (* Every node on a target's pred chain is final, bit for bit. *)
      let chain_ok t =
        let rec walk v =
          same_bits r.dist.(v) full.dist.(v)
          && r.pred.(v) = full.pred.(v)
          && (r.pred.(v) < 0 || walk sources.(r.pred.(v)))
        in
        walk t
      in
      let dist, pred = list_dijkstra g ~weights ~source in
      let oracle_path t =
        if dist.(t) = Float.infinity then None
        else
          let rec walk v acc =
            if v = source then acc else walk sources.(pred.(v)) (pred.(v) :: acc)
          in
          Some (walk t [])
      in
      let chains = Array.for_all chain_ok targets in
      let paths =
        Array.for_all
          (fun t -> G.Dijkstra.shortest_path g ~weights ~src:source ~dst:t = oracle_path t)
          targets
      in
      (* Reusing the workspace after the early exit: a full run and a
         run towards other targets must equal fresh ones — no target
         mark survives a run. *)
      let other = [| Prng.int rng n |] in
      let reused_full = same_result (G.Dijkstra.run ~workspace:ws g ~weights ~source) full in
      let reused_targeted =
        same_result
          (G.Dijkstra.run ~workspace:ws ~targets:other g ~weights ~source)
          (G.Dijkstra.run ~targets:other g ~weights ~source)
      in
      chains && paths && reused_full && reused_targeted)

let test_targeted_dijkstra_stops () =
  (* A path 0 -> 1 -> 2 -> 3: targeting node 1 settles 0 and 1 and never
     relaxes 1's edge, so node 2 keeps its initial label. *)
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let weights = [| 1.0; 1.0; 1.0 |] in
  let r = G.Dijkstra.run ~targets:[| 1; 1 |] g ~weights ~source:0 in
  approx "target settled" 1.0 r.dist.(1);
  Alcotest.(check int) "target pred" 0 r.pred.(1);
  check_true "search stopped before node 2" (r.dist.(2) = Float.infinity);
  let r = G.Dijkstra.run ~targets:[||] g ~weights ~source:0 in
  check_true "no targets: only the source is settled" (r.dist.(1) = Float.infinity);
  let r = G.Dijkstra.run ~targets:[| 3; 0 |] g ~weights ~source:2 in
  check_true "unreachable target: full run" (r.dist.(3) = 1.0 && r.dist.(0) = Float.infinity);
  match G.Dijkstra.run ~targets:[| 4 |] g ~weights ~source:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range target must be rejected"

let prop_dijkstra_vs_bellman_ford =
  qcheck ~count:50 "dijkstra agrees with bellman-ford" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 300) in
      let g, _ = random_layered_graph rng in
      let weights = Array.init (G.Digraph.num_edges g) (fun _ -> Prng.uniform rng ~lo:0.0 ~hi:5.0) in
      let d1 = (G.Dijkstra.run g ~weights ~source:0).dist in
      let d2 = bellman_ford g ~weights ~source:0 in
      let ok = ref true in
      Array.iteri
        (fun v dv ->
          if dv < Float.infinity || d2.(v) < Float.infinity then
            if Float.abs (dv -. d2.(v)) > 1e-9 then ok := false)
        d1;
      !ok)

let prop_maxflow_has_min_cut_certificate =
  (* Max-flow/min-cut: the set of nodes reachable in the residual graph
     defines a cut whose capacity equals the flow value. *)
  qcheck ~count:50 "maxflow saturates a cut of equal capacity" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 400) in
      let g, sink = random_layered_graph rng in
      let capacities =
        Array.init (G.Digraph.num_edges g) (fun _ -> Prng.uniform rng ~lo:0.1 ~hi:2.0)
      in
      let r = G.Maxflow.solve g ~capacities ~src:0 ~dst:sink in
      (* Residual reachability from the source. *)
      let n = G.Digraph.num_nodes g in
      let outs, ins = adjacency g in
      let seen = Array.make n false in
      let q = Queue.create () in
      seen.(0) <- true;
      Queue.push 0 q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun (e : G.Digraph.edge) ->
            if (not seen.(e.dst)) && capacities.(e.id) -. r.flow.(e.id) > 1e-9 then begin
              seen.(e.dst) <- true;
              Queue.push e.dst q
            end)
          outs.(u);
        List.iter
          (fun (e : G.Digraph.edge) ->
            if (not seen.(e.src)) && r.flow.(e.id) > 1e-9 then begin
              seen.(e.src) <- true;
              Queue.push e.src q
            end)
          ins.(u)
      done;
      let cut_capacity =
        Array.fold_left
          (fun acc (e : G.Digraph.edge) ->
            if seen.(e.src) && not seen.(e.dst) then acc +. capacities.(e.id) else acc)
          0.0 (G.Digraph.edges g)
      in
      (not seen.(sink)) && Float.abs (cut_capacity -. r.value) <= 1e-6)

let prop_dijkstra_vs_enumeration =
  qcheck ~count:50 "dijkstra agrees with exhaustive path search" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let g, sink = random_layered_graph rng in
      let weights = Array.init (G.Digraph.num_edges g) (fun _ -> Prng.uniform rng ~lo:0.0 ~hi:5.0) in
      let d = (G.Dijkstra.run g ~weights ~source:0).dist.(sink) in
      let best =
        G.Paths.enumerate g ~src:0 ~dst:sink
        |> List.fold_left (fun acc p -> Float.min acc (G.Paths.cost p weights)) Float.infinity
      in
      Float.abs (d -. best) <= 1e-9)

let prop_maxflow_min_cut_saturation =
  qcheck ~count:50 "maxflow is feasible and saturates a cut bound" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 100) in
      let g, sink = random_layered_graph rng in
      let capacities =
        Array.init (G.Digraph.num_edges g) (fun _ -> Prng.uniform rng ~lo:0.1 ~hi:2.0)
      in
      let r = G.Maxflow.solve g ~capacities ~src:0 ~dst:sink in
      (* The flow is feasible and no edge overflows its capacity; the
         source's outgoing capacity is an upper bound. *)
      let cap_bound =
        List.fold_left
          (fun acc (e : G.Digraph.edge) -> acc +. capacities.(e.id))
          0.0 (fst (adjacency g)).(0)
      in
      G.Flow.is_feasible g ~flow:r.flow ~src:0 ~dst:sink ~demand:r.value
      && Array.for_all2 (fun f c -> f <= c +. 1e-9) r.flow capacities
      && r.value <= cap_bound +. 1e-9)

let prop_decompose_roundtrip =
  qcheck ~count:50 "random path flows decompose consistently" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 200) in
      let g, sink = random_layered_graph rng in
      let all_paths = G.Paths.enumerate g ~src:0 ~dst:sink in
      let flows = List.map (fun p -> (p, Prng.uniform rng ~lo:0.0 ~hi:1.0)) all_paths in
      let flow = G.Flow.of_paths g flows in
      let rebuilt = G.Flow.of_paths g (G.Flow.decompose g ~flow ~src:0 ~dst:sink) in
      Sgr_numerics.Vec.linf_dist flow rebuilt <= 1e-7)

(* ---------------- goal-directed runs and the tie rule ---------------- *)

(* Walk [pred] from [t] towards [source] for at most [n] steps; [true]
   iff the walk arrives. *)
let chain_reaches (r : G.Dijkstra.result) g ~source t =
  let sources = G.Digraph.edge_sources g in
  let rec walk v steps =
    v = source || (steps > 0 && r.pred.(v) >= 0 && walk sources.(r.pred.(v)) (steps - 1))
  in
  walk t (G.Digraph.num_nodes g)

(* [a] and [b] hold the same [dist] bits and [pred] edge on every node
   of [t]'s chain in [a]. *)
let same_chain (a : G.Dijkstra.result) (b : G.Dijkstra.result) g t =
  let sources = G.Digraph.edge_sources g in
  let rec walk v steps =
    same_bits a.dist.(v) b.dist.(v)
    && a.pred.(v) = b.pred.(v)
    && (a.pred.(v) < 0 || (steps > 0 && walk sources.(a.pred.(v)) (steps - 1)))
  in
  walk t (G.Digraph.num_nodes g)

(* A random digraph whose nodes 0 .. n-1 lie on a two-way ring (so every
   sink is reachable), plus random chords and one isolated node. Free-flow
   weights come from {1, 2, 3} and the run's weights add {0, 1, 2}, so
   distances tie often. *)
let random_goal_instance rng =
  let n = 3 + Prng.int rng 25 in
  let b = G.Digraph.builder ~num_nodes:(n + 1) in
  for v = 0 to n - 1 do
    ignore (G.Digraph.add_edge b ~src:v ~dst:((v + 1) mod n));
    ignore (G.Digraph.add_edge b ~src:((v + 1) mod n) ~dst:v)
  done;
  for _ = 1 to Prng.int rng (3 * n) do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then ignore (G.Digraph.add_edge b ~src:u ~dst:v)
  done;
  let g = G.Digraph.freeze b in
  let m = G.Digraph.num_edges g in
  let lower = Array.init m (fun _ -> float_of_int (1 + Prng.int rng 3)) in
  let weights = Array.map (fun l -> l +. float_of_int (Prng.int rng 3)) lower in
  (g, n, lower, weights)

let prop_goal_matches_plain =
  qcheck ~count:300 "goal-directed and plain runs agree bitwise on the sink's chain"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1_300) in
      let g, n, lower, weights = random_goal_instance rng in
      let source = Prng.int rng n in
      (* The isolated node [n] now and then: an unreachable sink. *)
      let sink = if Prng.int rng 8 = 0 then n else Prng.int rng n in
      let goal = G.Dijkstra.goal g ~lower ~sink in
      let plain = G.Dijkstra.run ~targets:[| sink |] g ~weights ~source in
      let full = G.Dijkstra.run g ~weights ~source in
      let directed = G.Dijkstra.run ~validate:true ~goal g ~weights ~source in
      (* At free flow too: every weight then sits exactly on its bound. *)
      let at_lower = G.Dijkstra.run ~goal g ~weights:lower ~source in
      let plain_lower = G.Dijkstra.run ~targets:[| sink |] g ~weights:lower ~source in
      same_bits directed.dist.(sink) plain.dist.(sink)
      && same_chain directed plain g sink
      && same_chain directed full g sink
      && same_chain at_lower plain_lower g sink)

let test_zero_weight_ties_stay_acyclic () =
  (* Nodes 1 and 2 tie at distance 1 and are joined both ways by
     zero-weight edges 0 and 1. Settling 1 first moves pred(2) to edge
     0; settling 2 then ties node 1 through edge 1 < pred(1) = 2, and
     only the settled guard stops pred(1) <- 1, a 1 <-> 2 cycle. *)
  let g = G.Digraph.of_edges ~num_nodes:3 [ (1, 2); (2, 1); (0, 1); (0, 2) ] in
  let weights = [| 0.0; 0.0; 1.0; 1.0 |] in
  let r = G.Dijkstra.run g ~weights ~source:0 in
  Alcotest.(check (array int)) "preds" [| -1; 2; 0 |] r.pred;
  List.iter
    (fun t -> check_true "chain reaches the source" (chain_reaches r g ~source:0 t))
    [ 1; 2 ];
  check_true "shortest_path terminates"
    (G.Dijkstra.shortest_path g ~weights ~src:0 ~dst:2 = Some [ 2; 0 ]);
  (* Random {0, 1}-weighted graphs: every reachable node's chain, full
     and targeted, reaches the source within n steps. *)
  for seed = 0 to 199 do
    let rng = Prng.create (seed + 1_400) in
    let g, _ = random_tie_graph rng in
    let weights = Array.init (G.Digraph.num_edges g) (fun _ -> float_of_int (Prng.int rng 2)) in
    let n = G.Digraph.num_nodes g in
    let source = Prng.int rng (n - 1) in
    let full = G.Dijkstra.run g ~weights ~source in
    for t = 0 to n - 1 do
      if full.dist.(t) < Float.infinity then begin
        check_true "full chain reaches the source" (chain_reaches full g ~source t);
        let r = G.Dijkstra.run ~targets:[| t |] g ~weights ~source in
        check_true "targeted chain reaches the source" (chain_reaches r g ~source t)
      end
    done
  done

let fallbacks () = Sgr_obs.Obs.value (Sgr_obs.Obs.counter "dijkstra.goal_fallbacks")

let test_goal_key_bound_falls_back () =
  (* A path 0 -> 1 -> 2 -> 3 whose middle edge is 10^6 times lighter
     than the others: the key bound, 1e-9 · 1e-6 / (4·epsilon_float) ≈
     1.1, sits below the source's key (≈ 2), so the run must redo itself
     plain. *)
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let lower = [| 1.0; 1e-6; 1.0 |] in
  let goal = G.Dijkstra.goal g ~lower ~sink:3 in
  let before = fallbacks () in
  let r = G.Dijkstra.run ~goal g ~weights:lower ~source:0 in
  Alcotest.(check int) "one fallback" (before + 1) (fallbacks ());
  let plain = G.Dijkstra.run ~targets:[| 3 |] g ~weights:lower ~source:0 in
  check_true "the fallback is the plain run" (same_chain r plain g 3);
  (* Comparable weights keep every key under the bound. *)
  let lower = [| 1.0; 1.0; 1.0 |] in
  let goal = G.Dijkstra.goal g ~lower ~sink:3 in
  let before = fallbacks () in
  ignore (G.Dijkstra.run ~goal g ~weights:lower ~source:0);
  Alcotest.(check int) "no fallback" before (fallbacks ())

let test_goal_rejects_misuse () =
  let g = diamond () in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_true "zero lower bound"
    (raises (fun () -> G.Dijkstra.goal g ~lower:[| 1.0; 0.0; 1.0; 1.0; 1.0 |] ~sink:3));
  check_true "wrong length" (raises (fun () -> G.Dijkstra.goal g ~lower:[| 1.0 |] ~sink:3));
  let lower = [| 1.0; 1.0; 1.0; 1.0; 1.0 |] in
  let goal = G.Dijkstra.goal g ~lower ~sink:3 in
  check_true "weights below the bound"
    (raises (fun () ->
         G.Dijkstra.run ~validate:true ~goal g ~weights:[| 1.0; 0.5; 1.0; 1.0; 1.0 |] ~source:0));
  check_true "goal and targets"
    (raises (fun () -> G.Dijkstra.run ~goal ~targets:[| 3 |] g ~weights:lower ~source:0));
  check_true "another graph"
    (raises (fun () ->
         G.Dijkstra.run ~goal (G.Digraph.of_edges ~num_nodes:2 [ (0, 1) ]) ~weights:[| 1.0 |]
           ~source:0))

(* Every entry point refuses weights that do not hold one entry per
   edge, by name, before it touches the workspace: a run that failed
   half-way through would leave its target marks set, and the next run
   in that workspace would stop at once. *)
let test_wrong_weight_length_refused () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let weights = [| 1.0; 1.0; 1.0 |] in
  let ws = G.Dijkstra.workspace () in
  let refused name f =
    let expected = name ^ ": weights must hold one entry per edge" in
    List.iter
      (fun bad ->
        match f bad with
        | exception Invalid_argument m -> Alcotest.(check string) name expected m
        | _ -> Alcotest.failf "%s ran on %d weights" name (Array.length bad))
      [ [| 1.0 |]; [| 1.0; 1.0; 1.0; 1.0 |] ]
  in
  refused "Dijkstra.run" (fun weights ->
      G.Dijkstra.run ~validate:true ~workspace:ws ~targets:[| 3 |] g ~weights ~source:0);
  refused "Dijkstra.run" (fun weights ->
      G.Dijkstra.run ~workspace:ws ~targets:[| 3 |] g ~weights ~source:0);
  let goal = G.Dijkstra.goal g ~lower:weights ~sink:3 in
  refused "Dijkstra.run" (fun weights ->
      G.Dijkstra.run ~validate:true ~workspace:ws ~goal g ~weights ~source:0);
  refused "Dijkstra.run_reverse" (fun weights ->
      G.Dijkstra.run_reverse ~validate:true ~workspace:ws g ~weights ~sink:3);
  refused "Dijkstra.shortest_path" (fun weights ->
      G.Dijkstra.shortest_path ~validate:true ~workspace:ws g ~weights ~src:0 ~dst:3);
  refused "Dijkstra.shortest_edge_subgraph" (fun weights ->
      G.Dijkstra.shortest_edge_subgraph ~validate:true ~workspaces:(ws, ws) g ~weights ~src:0
        ~dst:3);
  Alcotest.(check (option (list int))) "the workspace still finds the path" (Some [ 0; 1; 2 ])
    (G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:0 ~dst:3);
  let fresh = G.Dijkstra.run g ~weights ~source:0 in
  let reused = G.Dijkstra.run ~workspace:ws g ~weights ~source:0 in
  Alcotest.(check (array (float 0.0))) "distances as in a fresh workspace" fresh.dist reused.dist

(* The kernel reads its arrays unchecked, so every node an entry point
   is given is checked first, by name, before the workspace is touched.
   On the path 0 -> 1 -> 2 a refused source used to escape as a bare
   "index out of bounds" after the targets were marked, and the next
   run on that workspace read dist.(2) = infinity. *)
let test_out_of_range_nodes_refused () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1); (1, 2) ] in
  let weights = [| 1.0; 1.0 |] in
  let ws = G.Dijkstra.workspace () in
  let goal = G.Dijkstra.goal g ~lower:weights ~sink:2 in
  let refused expected f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) expected expected m
    | _ -> Alcotest.failf "ran instead of raising %S" expected
  in
  let not_a_node name what v =
    Printf.sprintf "%s: %s %d is not a node (the graph has 3)" name what v
  in
  refused (not_a_node "Dijkstra.run" "source" 5) (fun () ->
      G.Dijkstra.run ~workspace:ws ~targets:[| 2 |] g ~weights ~source:5);
  Alcotest.(check (float 0.0)) "the next run reads dist.(2)" 2.0
    (G.Dijkstra.run ~workspace:ws ~targets:[| 2 |] g ~weights ~source:0).dist.(2);
  refused (not_a_node "Dijkstra.run" "source" (-1)) (fun () ->
      G.Dijkstra.run ~workspace:ws ~goal g ~weights ~source:(-1));
  refused (not_a_node "Dijkstra.run" "source" 3) (fun () ->
      G.Dijkstra.run ~workspace:ws g ~weights ~source:3);
  refused "Dijkstra.run: ~upper holds no entry" (fun () ->
      G.Dijkstra.run ~workspace:ws ~goal ~upper:[||] g ~weights ~source:0);
  refused "Dijkstra.run: target out of range" (fun () ->
      G.Dijkstra.run ~workspace:ws ~targets:[| 1; 3 |] g ~weights ~source:0);
  refused (not_a_node "Dijkstra.run_reverse" "sink" (-1)) (fun () ->
      G.Dijkstra.run_reverse ~workspace:ws g ~weights ~sink:(-1));
  refused (not_a_node "Dijkstra.shortest_path" "src" 7) (fun () ->
      G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:7 ~dst:2);
  refused (not_a_node "Dijkstra.shortest_path" "dst" 3) (fun () ->
      G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:0 ~dst:3);
  refused (not_a_node "Dijkstra.shortest_edge_subgraph" "src" (-4)) (fun () ->
      G.Dijkstra.shortest_edge_subgraph ~workspaces:(ws, ws) g ~weights ~src:(-4) ~dst:2);
  refused (not_a_node "Dijkstra.shortest_edge_subgraph" "dst" 9) (fun () ->
      G.Dijkstra.shortest_edge_subgraph ~workspaces:(ws, ws) g ~weights ~src:0 ~dst:9);
  refused (not_a_node "Dijkstra.goal" "sink" 3) (fun () ->
      G.Dijkstra.goal ~workspace:ws g ~lower:weights ~sink:3);
  refused (not_a_node "Dijkstra.goals" "sink" (-1)) (fun () ->
      G.Dijkstra.goals ~workspace:ws g ~lower:weights ~sinks:[| 2; -1 |]
        ~sources:[| [| 0 |]; [| 0 |] |]);
  refused (not_a_node "Dijkstra.goals" "source" 3) (fun () ->
      G.Dijkstra.goals ~workspace:ws g ~lower:weights ~sinks:[| 2 |] ~sources:[| [| 0; 3 |] |]);
  Alcotest.(check (option (list int))) "the workspace still finds the path" (Some [ 0; 1 ])
    (G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:0 ~dst:2);
  let fresh = G.Dijkstra.run g ~weights ~source:0 in
  let reused = G.Dijkstra.run ~workspace:ws g ~weights ~source:0 in
  Alcotest.(check (array (float 0.0))) "distances as in a fresh workspace" fresh.dist reused.dist

(* The heap's sifts are unchecked; the one index a caller gives it, the
   payload it reads its priority at, is checked before the heap changes. *)
let test_heap_refuses_payload_outside_keys () =
  let h = Heap.create () in
  let keys = [| 2.0; 1.0; 3.0 |] in
  Heap.insert h keys 0;
  List.iter
    (fun v ->
      (match Heap.insert h keys v with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "payload %d was pushed with 3 keys" v);
      match Heap.replace h keys v with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "payload %d replaced the root with 3 keys" v)
    [ 3; -1; max_int ];
  Alcotest.(check int) "the refused pushes left the heap as it was" 1 (Heap.size h);
  Heap.insert h keys 1;
  Alcotest.(check (list int)) "pops in key order" [ 1; 0; -1 ]
    (List.init 3 (fun _ -> Heap.pop h))

(* Unvalidated negative weights break the kernel's contract: on 0->1,
   1->2, 2->1, 1->3 with weights 1, -5, 1, 1 the search relabels the
   settled node 1 through 2->1, and [pred] closes the cycle 1->2->1. A
   simple path has at most n - 1 edges, so the walk from the sink stops
   there and names the fault instead of following the cycle forever. *)
let test_predecessor_cycle_refused () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let weights = [| 1.0; -5.0; 1.0; 1.0 |] in
  let r = G.Dijkstra.run g ~weights ~source:0 in
  Alcotest.(check (array int)) "pred closes 1 -> 2 -> 1" [| -1; 2; 1; 3 |] r.pred;
  match G.Dijkstra.shortest_path g ~weights ~src:0 ~dst:3 with
  | exception Invalid_argument m ->
      Alcotest.(check string) "message"
        "Dijkstra.shortest_path: the predecessor chain of node 3 does not reach node 0 within 3 \
         edges (negative weights?)"
        m
  | _ -> Alcotest.fail "a cyclic predecessor chain was read as a path"

(* One workspace reused across a random sequence of runs — full,
   targeted (early exits, duplicate and unreachable targets), goal-directed
   and reverse, on graphs whose node count changes now and then, with
   refused calls (a node, a target or an empty [~upper] out of range)
   in between — must read like a fresh workspace on every node after
   every run: a run resets only what the previous one labeled, and that
   is all it may leave behind; a refused call leaves nothing. *)
let prop_reused_workspace_reads_fresh =
  qcheck ~count:200 "a reused workspace reads bitwise like a fresh one on every node"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1_500) in
      let ws = G.Dijkstra.workspace () in
      let instance = ref (random_goal_instance rng) in
      let same (a : G.Dijkstra.result) (b : G.Dijkstra.result) =
        Array.length a.dist = Array.length b.dist
        && Array.for_all2 same_bits a.dist b.dist
        && Array.for_all2 Int.equal a.pred b.pred
      in
      (* Nodes are 0 .. n; one past either end is out of range. *)
      let refused (g, n, lower, weights) =
        let bad = if Prng.bool rng then -1 - Prng.int rng 3 else n + 1 + Prng.int rng 3 in
        let targets = [| Prng.int rng (n + 1); bad |] in
        let goal = G.Dijkstra.goal g ~lower ~sink:(Prng.int rng (n + 1)) in
        match
          match Prng.int rng 6 with
          | 0 -> ignore (G.Dijkstra.run ~workspace:ws ~targets g ~weights ~source:bad)
          | 1 -> ignore (G.Dijkstra.run ~workspace:ws ~targets g ~weights ~source:0)
          | 2 -> ignore (G.Dijkstra.run ~workspace:ws ~goal g ~weights ~source:bad)
          | 3 -> ignore (G.Dijkstra.run ~workspace:ws ~goal ~upper:[||] g ~weights ~source:0)
          | 4 -> ignore (G.Dijkstra.run_reverse ~workspace:ws g ~weights ~sink:bad)
          | _ -> ignore (G.Dijkstra.shortest_path ~workspace:ws g ~weights ~src:0 ~dst:bad)
        with
        | exception Invalid_argument _ -> true
        | () -> false
      in
      List.for_all
        (fun _ ->
          if Prng.int rng 4 = 0 then instance := random_goal_instance rng;
          (Prng.int rng 3 > 0 || refused !instance)
          &&
          let g, n, lower, weights = !instance in
          let source = Prng.int rng (n + 1) in
          let mode = Prng.int rng 4 in
          let targets = Array.init (Prng.int rng 4) (fun _ -> Prng.int rng (n + 1)) in
          let goal = G.Dijkstra.goal g ~lower ~sink:(Prng.int rng (n + 1)) in
          let run ?workspace () =
            match mode with
            | 0 -> G.Dijkstra.run ?workspace g ~weights ~source
            | 1 -> G.Dijkstra.run ?workspace ~targets g ~weights ~source
            | 2 -> G.Dijkstra.run ?workspace ~goal g ~weights ~source
            | _ -> G.Dijkstra.run_reverse ?workspace g ~weights ~sink:source
          in
          let reused = run ~workspace:ws () in
          let fresh = run () in
          same reused fresh)
        (List.init 12 Fun.id))

let suite =
  [
    case "digraph: build + adjacency" test_build;
    case "digraph: rejects self loops" test_build_rejects_self_loop;
    case "digraph: rejects bad endpoints" test_build_rejects_out_of_range;
    case "digraph: parallel edges" test_parallel_edges_allowed;
    case "heap: sorts random input" test_heap_sorts;
    case "heap: clear keeps capacity, reuse is clean" test_heap_clear_reuse;
    case "digraph: CSR mirrors adjacency lists" test_csr_matches_adjacency_lists;
    case "dijkstra: diamond" test_dijkstra_diamond;
    case "dijkstra: ~validate rejects negative weights" test_dijkstra_validate_negative;
    case "dijkstra: workspace reuse" test_dijkstra_workspace_reuse;
    case "dijkstra: unreachable" test_dijkstra_unreachable;
    case "dijkstra: reverse distances" test_dijkstra_reverse;
    case "dijkstra: shortest-edge subgraph" test_shortest_subgraph;
    case "dijkstra: subgraph with ties" test_shortest_subgraph_ties;
    case "dijkstra: targeted run stops at its targets" test_targeted_dijkstra_stops;
    case "paths: enumerate diamond" test_enumerate_paths;
    case "paths: enumeration limit" test_enumerate_limit;
    case "paths: accessors" test_path_accessors;
    case "maxflow: diamond" test_maxflow_diamond;
    case "maxflow: residual arcs" test_maxflow_needs_back_edges;
    case "maxflow: bottleneck" test_maxflow_bottleneck;
    case "flow: decompose round trip" test_flow_decompose_roundtrip;
    case "flow: feasibility checks" test_flow_feasibility;
    prop_dijkstra_vs_enumeration;
    prop_dijkstra_csr_vs_list_oracle;
    prop_targeted_dijkstra;
    prop_heap_matches_swap_oracle;
    prop_dijkstra_vs_bellman_ford;
    prop_maxflow_min_cut_saturation;
    prop_maxflow_has_min_cut_certificate;
    prop_decompose_roundtrip;
    prop_goal_matches_plain;
    case "dijkstra: zero-weight ties keep pred chains acyclic" test_zero_weight_ties_stay_acyclic;
    case "dijkstra: a key past the goal's bound reruns plain" test_goal_key_bound_falls_back;
    case "dijkstra: goal misuse is rejected" test_goal_rejects_misuse;
    prop_reused_workspace_reads_fresh;
    case "dijkstra: a weight array of the wrong length is refused" test_wrong_weight_length_refused;
    case "dijkstra: an out-of-range node is refused by name" test_out_of_range_nodes_refused;
    case "heap: a payload outside the keys is refused" test_heap_refuses_payload_outside_keys;
    prop_heap_key_order;
    prop_heap_pops_pushed_bits;
    case "dijkstra: a predecessor cycle is refused, not walked" test_predecessor_cycle_refused;
  ]
