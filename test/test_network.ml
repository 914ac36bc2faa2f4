(* Tests for network instances and both equilibrium solvers. Closed forms
   come from Pigou-as-network, the classic Braess graph and the Fig. 7
   instance; the two solvers are also cross-checked on random networks. *)

open Helpers
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Solver = Sgr_assign.Solver
module Aon = Sgr_assign.Aon
module Obj = Sgr_network.Objective
module G = Sgr_graph
module L = Sgr_latency.Latency
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec

(* Pigou as a two-edge network. *)
let pigou_net () =
  let g = G.Digraph.of_edges ~num_nodes:2 [ (0, 1); (0, 1) ] in
  Net.single g ~latencies:[| L.linear 1.0; L.constant 1.0 |] ~src:0 ~dst:1 ~demand:1.0

let test_make_validation () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1) ] in
  (match Net.single g ~latencies:[| L.linear 1.0 |] ~src:0 ~dst:2 ~demand:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unreachable pair rejected");
  (match Net.single g ~latencies:[||] ~src:0 ~dst:1 ~demand:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "latency count mismatch rejected");
  List.iter
    (fun demand ->
      match Net.single g ~latencies:[| L.linear 1.0 |] ~src:0 ~dst:1 ~demand with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "demand %g rejected" demand)
    [ -1.0; Float.nan; Float.infinity ]

let test_functionals () =
  let net = pigou_net () in
  let f = [| 0.5; 0.5 |] in
  approx "cost" 0.75 (Net.cost net f);
  approx "beckmann" (0.125 +. 0.5) (Net.beckmann net f);
  approx_array "latencies" [| 0.5; 1.0 |] (Net.edge_latencies net f);
  approx_array "marginals" [| 1.0; 1.0 |] (Net.edge_marginals net f);
  approx "total demand" 1.0 (Net.total_demand net)

let test_shift () =
  let net = pigou_net () in
  let shifted = Net.shift net [| 0.25; 0.0 |] in
  approx "shifted latency" 0.75 (Net.edge_latencies shifted [| 0.5; 0.5 |]).(0)

let test_paths () =
  let net = W.fig7 () in
  let paths = Net.paths net in
  Alcotest.(check int) "three s-t paths" 3 (Array.length paths.(0))

let test_equilibrate_pigou () =
  let net = pigou_net () in
  let nash = Eq.solve Obj.Wardrop net in
  approx_array "nash edge flow" [| 1.0; 0.0 |] nash.edge_flow;
  let opt = Eq.solve Obj.System_optimum net in
  approx_array "opt edge flow" [| 0.5; 0.5 |] opt.edge_flow;
  check_true "wardrop verified" (Eq.verify Obj.Wardrop net nash);
  check_true "optimum verified" (Eq.verify Obj.System_optimum net opt)

let test_equilibrate_braess_nash () =
  (* Classic Braess: the whole unit flow uses the shortcut; C(N) = 2. *)
  let net = W.braess_classic () in
  let nash = Eq.solve Obj.Wardrop net in
  approx_array "all through s→v→w→t" [| 1.0; 0.0; 1.0; 0.0; 1.0 |] nash.edge_flow;
  approx "C(N) = 2" 2.0 (Net.cost net nash.edge_flow)

let test_equilibrate_braess_opt () =
  (* Optimum ignores the shortcut and splits evenly; C(O) = 3/2. *)
  let net = W.braess_classic () in
  let opt = Eq.solve Obj.System_optimum net in
  approx_array "split" [| 0.5; 0.5; 0.0; 0.5; 0.5 |] opt.edge_flow;
  approx "C(O) = 3/2" 1.5 (Net.cost net opt.edge_flow)

let test_equilibrate_fig7_opt () =
  (* The reconstructed Example 6.5.1 optimum must match the caption. *)
  let epsilon = 0.02 in
  let net = W.fig7 ~epsilon () in
  let opt = Eq.solve Obj.System_optimum net in
  approx_array "caption flows"
    [| 0.75 -. epsilon; 0.25 +. epsilon; 0.5 -. (2.0 *. epsilon); 0.25 +. epsilon; 0.75 -. epsilon |]
    opt.edge_flow

let test_equilibrate_fig7_nash () =
  (* By symmetry the Nash equalizes the three paths; the middle path has
     latency 2x_m + x_v where all used. Solved by the solver; verify the
     Wardrop property and the symmetry instead of a closed form. *)
  let net = W.fig7 () in
  let nash = Eq.solve Obj.Wardrop net in
  check_true "wardrop" (Eq.verify Obj.Wardrop net nash);
  approx "symmetry sv=wt" nash.edge_flow.(0) nash.edge_flow.(4);
  approx "symmetry sw=vt" nash.edge_flow.(1) nash.edge_flow.(3)

let test_two_commodity_solver () =
  let net = W.two_commodity () in
  let nash = Eq.solve Obj.Wardrop net in
  check_true "wardrop across both commodities" (Eq.verify Obj.Wardrop net nash);
  (* Per-commodity demand conservation. *)
  Array.iteri
    (fun i flows ->
      approx "commodity demand routed" net.Net.commodities.(i).Net.demand (Vec.sum flows))
    nash.path_flows

let test_fw_pigou () =
  let net = pigou_net () in
  let nash = Solver.solve ~tol:1e-8 ~max_iter:100_000 Obj.Wardrop net in
  approx_array ~eps:1e-5 "nash" [| 1.0; 0.0 |] nash.edge_flow;
  let opt = Solver.solve ~tol:1e-8 ~max_iter:100_000 Obj.System_optimum net in
  approx_array ~eps:1e-5 "opt" [| 0.5; 0.5 |] opt.edge_flow

let test_fw_matches_equilibrate_fig7 () =
  let net = W.fig7 () in
  let a = Solver.solve ~tol:1e-10 ~max_iter:100_000 Obj.System_optimum net in
  let b = Eq.solve Obj.System_optimum net in
  check_true "edge flows agree" (Vec.linf_dist a.edge_flow b.edge_flow <= 1e-4)

let test_objective_values () =
  let net = pigou_net () in
  approx "beckmann value" (Obj.objective Obj.Wardrop net [| 0.5; 0.5 |])
    (Net.beckmann net [| 0.5; 0.5 |]);
  approx "cost value" (Obj.objective Obj.System_optimum net [| 0.5; 0.5 |])
    (Net.cost net [| 0.5; 0.5 |])

let test_zero_demand_commodity () =
  let g = G.Digraph.of_edges ~num_nodes:2 [ (0, 1); (0, 1) ] in
  let net =
    Net.make g
      ~latencies:[| L.linear 1.0; L.constant 1.0 |]
      ~commodities:[| { Net.src = 0; dst = 1; demand = 0.0 } |]
  in
  let sol = Eq.solve Obj.Wardrop net in
  approx_array "nothing flows" [| 0.0; 0.0 |] sol.edge_flow

let test_aon () =
  let net = W.braess_classic () in
  let flow = Array.make 5 0.0 in
  Aon.assign (Aon.plan net) net ~weights:[| 0.0; 1.0; 0.0; 1.0; 0.0 |] ~into:flow;
  approx_array "all demand on the zero path" [| 1.0; 0.0; 1.0; 0.0; 1.0 |] flow

let random_network seed =
  let rng = Prng.create seed in
  W.random_layered_network rng ~layers:(1 + Prng.int rng 3) ~width:(1 + Prng.int rng 3)
    ~extra_edges:(Prng.int rng 3)
    ~demand:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ()

let prop_solvers_agree =
  (* Frank-Wolfe converges as O(1/k), so edge flows are only loosely
     pinned down; the objective value is what its duality gap bounds. *)
  qcheck ~count:25 "frank-wolfe and path equilibration agree" QCheck.small_nat (fun seed ->
      let net = random_network (seed + 1) in
      let a = Solver.solve ~tol:1e-8 ~max_iter:100_000 Obj.System_optimum net in
      let b = Eq.solve Obj.System_optimum net in
      let fa = Obj.objective Obj.System_optimum net a.edge_flow in
      let fb = Obj.objective Obj.System_optimum net b.edge_flow in
      Float.abs (fa -. fb) <= 1e-4 *. Float.max 1.0 (Float.abs fb)
      && Vec.linf_dist a.edge_flow b.edge_flow <= 1e-2)

let prop_equilibrate_wardrop =
  qcheck ~count:50 "path equilibration reaches a Wardrop point" QCheck.small_nat (fun seed ->
      let net = random_network (seed + 50) in
      let sol = Eq.solve Obj.Wardrop net in
      Eq.verify Obj.Wardrop net sol)

let prop_opt_cost_below_nash =
  qcheck ~count:50 "C(O) <= C(N)" QCheck.small_nat (fun seed ->
      let net = random_network (seed + 100) in
      let n = Eq.solve Obj.Wardrop net and o = Eq.solve Obj.System_optimum net in
      Net.cost net o.edge_flow <= Net.cost net n.edge_flow +. 1e-6)

let test_with_demands () =
  let net = W.two_commodity () in
  let resized = Net.with_demands net [| 2.0; 3.0 |] in
  approx "resized total" 5.0 (Net.total_demand resized);
  Alcotest.(check int) "same endpoints" net.Net.commodities.(0).Net.src
    resized.Net.commodities.(0).Net.src;
  (match Net.with_demands net [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch rejected");
  List.iter
    (fun d ->
      match Net.with_demands net [| 1.0; d |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "demand %g rejected" d)
    [ -1.0; Float.nan; Float.infinity ]

(* The exhaustive oracle: path equilibration over every simple path. *)
let exhaustive obj net = Sgr_network.Column_gen.solve_on_paths obj net ~paths:(Net.paths net)

let test_exhaustive_oracle () =
  let net = W.fig7 () in
  let ex = exhaustive Obj.Wardrop net in
  Alcotest.(check int) "exhaustive works over all simple paths" 3 (Array.length ex.paths.(0));
  let cg = Eq.solve Obj.Wardrop net in
  check_true "column generation prices no more columns" (Array.length cg.paths.(0) <= 3);
  check_true "engines agree" (Vec.linf_dist ex.edge_flow cg.edge_flow <= 1e-6)

(* [sgr solve]'s network report: edge flows through [Vec.pp]; costs and
   PoA at [%.6g]. *)
let render_network net (nash : Eq.solution) (opt : Eq.solution) =
  let cn = Net.cost net nash.edge_flow and co = Net.cost net opt.edge_flow in
  String.concat "\n"
    [
      Format.asprintf "nash edge flow    = %a" Vec.pp nash.edge_flow;
      Format.asprintf "optimum edge flow = %a" Vec.pp opt.edge_flow;
      Format.asprintf "C(N) = %.6g, C(O) = %.6g, price of anarchy = %.6g" cn co (cn /. co);
    ]

let test_solve_output_matches_oracle () =
  List.iter
    (fun (name, net) ->
      Alcotest.(check string)
        name
        (render_network net (exhaustive Obj.Wardrop net) (exhaustive Obj.System_optimum net))
        (render_network net (Eq.solve Obj.Wardrop net) (Eq.solve Obj.System_optimum net)))
    [ ("fig7", W.fig7 ()); ("braess", W.braess_classic ()); ("two-commodity", W.two_commodity ()) ]

let test_column_gen_past_enumeration_limit () =
  (* A 10x10 grid has C(18,9) = 48620 s-t paths — the exhaustive engine's
     enumeration hard-fails, column generation prices a handful. *)
  let rng = Prng.create 1 in
  let net = W.grid_network rng ~rows:10 ~cols:10 () in
  let sol = Eq.solve Obj.Wardrop net in
  check_true "wardrop gap closed" (sol.gap <= 1e-6);
  check_true "few columns priced" (Array.length sol.paths.(0) < 100);
  approx "demand routed" net.Net.commodities.(0).Net.demand (Vec.sum sol.path_flows.(0))

let prop_column_gen_matches_oracle =
  qcheck ~count:50 "column generation agrees with the exhaustive oracle" QCheck.small_nat
    (fun seed ->
      let net = random_network (seed + 200) in
      let obj = if seed mod 2 = 0 then Obj.Wardrop else Obj.System_optimum in
      let cg = Eq.solve obj net in
      let ex = exhaustive obj net in
      cg.gap <= 1e-6
      && Eq.verify obj net cg
      && Vec.linf_dist cg.edge_flow ex.edge_flow <= 1e-5)

let prop_nash_minimizes_beckmann =
  qcheck ~count:30 "the Wardrop flow minimizes the Beckmann potential" QCheck.small_nat
    (fun seed ->
      let net = random_network (seed + 150) in
      let n = Eq.solve Obj.Wardrop net in
      let o = Eq.solve Obj.System_optimum net in
      (* Any other flow we can produce has no smaller potential. *)
      Net.beckmann net n.edge_flow <= Net.beckmann net o.edge_flow +. 1e-6)

(* Reachability is one breadth-first search per distinct source; the
   first commodity, in order, that fails a check names the error, and a
   search that stops at its sinks must not hide a later one. *)
let test_make_rejects_unreachable () =
  (* 0 -> 1 -> 2 and 3 -> 2: node 3 is reached from nowhere, and 2
     reaches nothing. *)
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (3, 2) ] in
  let latencies = Array.make 3 (L.linear 1.0) in
  let make ks =
    let commodity (src, dst, demand) = { Net.src; dst; demand } in
    match Net.make g ~latencies ~commodities:(Array.of_list (List.map commodity ks)) with
    | _ -> "ok"
    | exception Invalid_argument m -> m
  in
  let unreachable = "Network.make: destination unreachable from source" in
  List.iter
    (fun (ks, expected) -> Alcotest.(check string) "message" expected (make ks))
    [
      ([ (0, 2, 1.0); (3, 2, 1.0); (0, 1, 0.5) ], "ok");
      ([ (0, 3, 1.0) ], unreachable);
      ([ (2, 0, 1.0) ], unreachable);
      (* Source 0's search stops at node 1 and must still find 3 unreached. *)
      ([ (0, 1, 1.0); (0, 3, 1.0) ], unreachable);
      ([ (0, 1, 1.0); (1, 1, 1.0); (0, 3, 1.0) ], "Network.make: source equals destination");
      ([ (0, 3, 1.0); (1, 1, 1.0) ], unreachable);
      ([ (0, 2, Float.nan); (0, 3, 1.0) ], "Network.make: demand must be finite and nonnegative");
      ([ (0, 3, 1.0); (0, 2, -1.0) ], unreachable);
      ([ (0, 4, 1.0) ], "Network.make: commodity endpoint out of range");
    ];
  (* [with_commodities] revalidates through [make]. *)
  check_true "with_commodities checks too"
    (match Net.with_commodities (pigou_net ()) [| { Net.src = 1; dst = 0; demand = 1.0 } |] with
    | exception Invalid_argument m -> String.equal m unreachable
    | _ -> false)

(* [make] against a reachability oracle: the first commodity, in order,
   whose demand, endpoints or reachability (a search from its source,
   [Topology.reachable_from]) fails names the message. Graphs come
   strongly connected (a random cycle through every node plus chords,
   where [make]'s one forward and one reverse search settle every
   commodity), as acyclic grids (edges right and down only), or with
   one node cut off (it has only outgoing edges), where the per-source
   searches must name the first commodity cut off. *)
let prop_make_matches_reachability_oracle =
  qcheck ~count:300 "make: strong-connectivity check names the oracle's first failure"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 7_700) in
      let edges, n =
        if Prng.int rng 3 = 0 then
          let rows = 1 + Prng.int rng 4 and cols = 1 + Prng.int rng 4 in
          let out v =
            let r = v / cols and c = v mod cols in
            (if c + 1 < cols then [ (v, v + 1) ] else [])
            @ if r + 1 < rows then [ (v, v + cols) ] else []
          in
          (List.concat_map out (List.init (rows * cols) Fun.id), rows * cols)
        else
          let k = 1 + Prng.int rng 12 in
          let order = Array.init k Fun.id in
          Prng.shuffle rng order;
          let cycle =
            if k = 1 then [] else List.init k (fun i -> (order.(i), order.((i + 1) mod k)))
          in
          let chords =
            List.filter_map
              (fun _ ->
                let u = Prng.int rng k and v = Prng.int rng k in
                if u = v then None else Some (u, v))
              (List.init (Prng.int rng (2 * k)) Fun.id)
          in
          let cut = if k > 1 && Prng.bool rng then [ (k, Prng.int rng k) ] else [] in
          (cycle @ chords @ cut, if cut = [] then k else k + 1)
      in
      let g = G.Digraph.of_edges ~num_nodes:n edges in
      let latencies = Array.make (G.Digraph.num_edges g) (L.linear 1.0) in
      let commodity _ =
        let node () = if Prng.int rng 20 = 0 then n else Prng.int rng n in
        let demand = if Prng.int rng 20 = 0 then -1.0 else 1.0 in
        { Net.src = node (); dst = node (); demand }
      in
      let commodities = Array.init (1 + Prng.int rng 6) commodity in
      let oracle =
        let failure (c : Net.commodity) =
          if not (c.demand >= 0.0) then Some "Network.make: demand must be finite and nonnegative"
          else if c.src = c.dst then Some "Network.make: source equals destination"
          else if c.src >= n || c.dst >= n then Some "Network.make: commodity endpoint out of range"
          else if not (G.Topology.reachable_from g c.src).(c.dst) then
            Some "Network.make: destination unreachable from source"
          else None
        in
        match Array.find_map failure commodities with Some m -> m | None -> "ok"
      in
      let got =
        match Net.make g ~latencies ~commodities with
        | _ -> "ok"
        | exception Invalid_argument m -> m
      in
      String.equal got oracle)

let suite =
  [
    case "make: validation" test_make_validation;
    case "functionals: cost/beckmann/latency" test_functionals;
    case "shift" test_shift;
    case "path sets" test_paths;
    case "equilibrate: pigou" test_equilibrate_pigou;
    case "equilibrate: braess nash" test_equilibrate_braess_nash;
    case "equilibrate: braess optimum" test_equilibrate_braess_opt;
    case "equilibrate: fig7 optimum = caption" test_equilibrate_fig7_opt;
    case "equilibrate: fig7 nash symmetric" test_equilibrate_fig7_nash;
    case "equilibrate: two commodities" test_two_commodity_solver;
    case "frank-wolfe: pigou" test_fw_pigou;
    case "frank-wolfe vs equilibrate: fig7" test_fw_matches_equilibrate_fig7;
    case "objective dispatch" test_objective_values;
    case "zero-demand commodity" test_zero_demand_commodity;
    case "all-or-nothing" test_aon;
    case "with_demands: cheap resize" test_with_demands;
    case "exhaustive oracle: every simple path, agrees with column generation"
      test_exhaustive_oracle;
    case "solve output: column generation prints like the exhaustive oracle"
      test_solve_output_matches_oracle;
    case "column generation: past the enumeration limit" test_column_gen_past_enumeration_limit;
    prop_solvers_agree;
    prop_column_gen_matches_oracle;
    prop_equilibrate_wardrop;
    prop_opt_cost_below_nash;
    prop_nash_minimizes_beckmann;
    case "make: unreachable commodities, first failure first" test_make_rejects_unreachable;
    prop_make_matches_reachability_oracle;
  ]
