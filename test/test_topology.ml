(* Tests for topology queries and DOT export. *)

open Helpers
module G = Sgr_graph
module Prng = Sgr_numerics.Prng

let diamond () = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]
let cycle () = G.Digraph.of_edges ~num_nodes:3 [ (0, 1); (1, 2); (2, 0) ]

let test_topological_order_dag () =
  let g = diamond () in
  match G.Topology.topological_order g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      Alcotest.(check int) "all nodes" 4 (Array.length order);
      (* Every edge goes forward in the order. *)
      let pos = Array.make 4 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Array.iter
        (fun (e : G.Digraph.edge) -> check_true "edge forward" (pos.(e.src) < pos.(e.dst)))
        (G.Digraph.edges g)

let test_topological_order_cycle () =
  Alcotest.(check bool) "cycle has no order" true (G.Topology.topological_order (cycle ()) = None)

let test_is_dag () =
  check_true "diamond" (G.Topology.is_dag (diamond ()));
  check_true "cycle" (not (G.Topology.is_dag (cycle ())))

let test_cycle_in_support () =
  let g = cycle () in
  check_true "full support cycles" (G.Topology.has_cycle_in_support g ~support:[| true; true; true |]);
  check_true "broken support acyclic"
    (not (G.Topology.has_cycle_in_support g ~support:[| true; true; false |]))

let test_reachability () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check (array bool)) "forward" [| true; true; true; false |]
    (G.Topology.reachable_from g 0);
  Alcotest.(check (array bool)) "backward" [| true; true; true; false |]
    (G.Topology.co_reachable_to g 2)

let test_dot_export () =
  let g = diamond () in
  let dot =
    G.Dot.export ~name:"test"
      ~node_label:(fun v -> Printf.sprintf "n%d" v)
      ~edge_label:(fun e -> Printf.sprintf "e%d" e.id)
      ~edge_highlight:(fun e -> e.id = 2)
      g
  in
  check_true "digraph header" (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  check_true "has edge" (contains "n1 -> n3");
  check_true "has highlight" (contains "color=red");
  check_true "has label" (contains "e2")

let prop_random_layered_is_dag =
  qcheck ~count:30 "layered networks are DAGs" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let net =
        Sgr_workloads.Workloads.random_layered_network rng ~layers:(1 + Prng.int rng 3)
          ~width:(1 + Prng.int rng 3) ~extra_edges:(Prng.int rng 4) ()
      in
      G.Topology.is_dag net.Sgr_network.Network.graph)

let prop_optimum_support_acyclic =
  qcheck ~count:25 "optimal flow supports are acyclic" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 50) in
      let net = Sgr_workloads.Workloads.grid_network rng ~rows:3 ~cols:3 () in
      let opt =
        Sgr_network.Equilibrate.solve Sgr_network.Objective.System_optimum net
      in
      let support = Array.map (fun f -> f > 1e-9) opt.edge_flow in
      not (G.Topology.has_cycle_in_support net.Sgr_network.Network.graph ~support))

let prop_cycle_in_support_vs_topological_order =
  (* Dense random digraphs (cycles are common) under random supports:
     the DFS must agree with Kahn's algorithm on the supported
     subgraph. *)
  qcheck ~count:200 "support cycle iff the supported subgraph has no topological order"
    QCheck.(int_bound 100_000) (fun seed ->
      let rng = Prng.create (seed + 1) in
      let n = 1 + Prng.int rng 7 in
      let edges =
        List.init (Prng.int rng 16) (fun _ -> (Prng.int rng n, Prng.int rng n))
        |> List.filter (fun (a, b) -> a <> b)
      in
      let g = G.Digraph.of_edges ~num_nodes:n edges in
      let support = Array.init (G.Digraph.num_edges g) (fun _ -> Prng.int rng 4 > 0) in
      let supported = List.filteri (fun i _ -> support.(i)) edges in
      let sub = G.Digraph.of_edges ~num_nodes:n supported in
      G.Topology.has_cycle_in_support g ~support = (G.Topology.topological_order sub = None))

let suite =
  [
    case "topological order on a DAG" test_topological_order_dag;
    case "no order on a cycle" test_topological_order_cycle;
    case "is_dag" test_is_dag;
    case "cycle detection in support" test_cycle_in_support;
    case "reachability" test_reachability;
    case "dot export" test_dot_export;
    prop_random_layered_is_dag;
    prop_optimum_support_acyclic;
    prop_cycle_in_support_vs_topological_order;
  ]
