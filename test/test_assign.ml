(* Tests for the edge-flow assignment core (lib/assign): Frank–Wolfe /
   MSA against the path-based engine, on-demand flow decomposition, the
   TNTP importer and the saturating path counter behind `sgr info`. *)

open Helpers
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module G = Sgr_graph
module W = Sgr_workloads.Workloads
module Tntp = Sgr_workloads.Tntp
module Prng = Sgr_numerics.Prng
module Solver = Sgr_assign.Solver
module Decompose = Sgr_assign.Decompose

let small_grid seed =
  let rng = Prng.create (seed + 1) in
  W.grid_network rng ~rows:(2 + (seed mod 3)) ~cols:(2 + ((seed / 3) mod 3)) ()

let small_multi seed =
  let rng = Prng.create (seed + 1) in
  W.random_multicommodity rng ~rows:3 ~cols:4 ~commodities:(1 + (seed mod 4)) ()

let small_city seed =
  let rng = Prng.create (seed + 1) in
  W.synthetic_city rng ~rings:2 ~radials:5 ~commodities:6 ()

let bitwise_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
          then ok := false)
        a;
      !ok)

(* ---------------- solver vs the path-based engine ---------------- *)

let agreement obj net ~method_ ~tol =
  let a = Solver.solve ~tol ~max_iter:200_000 ~method_ obj net in
  let b = Eq.solve obj net in
  let fa = Obj.objective obj net a.Solver.edge_flow in
  let fb = Obj.objective obj net b.Eq.edge_flow in
  let ca = Net.cost net a.Solver.edge_flow in
  let cb = Net.cost net b.Eq.edge_flow in
  Float.abs (fa -. fb) <= 1e-3 *. Float.max 1.0 (Float.abs fb)
  && Float.abs (ca -. cb) <= 1e-3 *. Float.max 1.0 (Float.abs cb)

let prop_fw_matches_column_gen =
  qcheck ~count:25 "edge-flow FW matches the path-based engine (grid)" QCheck.small_nat
    (fun seed ->
      let net = small_grid seed in
      agreement Obj.Wardrop net ~method_:Solver.Frank_wolfe ~tol:1e-7
      && agreement Obj.System_optimum net ~method_:Solver.Frank_wolfe ~tol:1e-7)

let prop_msa_matches_column_gen =
  qcheck ~count:15 "edge-flow MSA matches the path-based engine (grid)" QCheck.small_nat
    (fun seed ->
      let net = small_grid seed in
      agreement Obj.Wardrop net ~method_:Solver.Msa ~tol:1e-5)

let prop_multicommodity_agreement =
  qcheck ~count:15 "edge-flow FW matches the path-based engine (multicommodity)"
    QCheck.small_nat (fun seed ->
      let net = small_multi seed in
      agreement Obj.Wardrop net ~method_:Solver.Frank_wolfe ~tol:1e-7)

let test_jobs_byte_identity () =
  let net = small_city 7 in
  List.iter
    (fun obj ->
      let a = Solver.solve ~tol:1e-6 ~jobs:1 obj net in
      let b = Solver.solve ~tol:1e-6 ~jobs:4 obj net in
      check_true "edge flows identical at jobs 1 and 4"
        (bitwise_equal a.Solver.edge_flow b.Solver.edge_flow);
      Alcotest.(check int) "same iteration count" a.Solver.iterations b.Solver.iterations)
    [ Obj.Wardrop; Obj.System_optimum ]

let test_solve_flows_same_aggregate () =
  let net = small_multi 11 in
  let a = Solver.solve ~tol:1e-6 Obj.Wardrop net in
  let b, _ = Solver.solve_flows ~tol:1e-6 Obj.Wardrop net in
  check_true "solve and solve_flows agree bitwise"
    (bitwise_equal a.Solver.edge_flow b.Solver.edge_flow)

(* ---------------- bit-identity golden ---------------- *)

(* MD5 of the IEEE-754 bit patterns of an edge flow, in edge order. *)
let flow_digest flow =
  let b = Buffer.create (8 * Array.length flow) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) flow;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned iteration counts and edge-flow digests. Work on the solver
   kernels (Dijkstra, heap, AON, line search) must reproduce them: a
   change that alters a single bit of a solve — tie-breaking, summation
   order, early exit — shows up here. *)
let golden_solves =
  [
    ("FW Wardrop", Obj.Wardrop, Solver.Frank_wolfe, 1e-6, 107, "f0dce9c74aa74764e538ec467853966c");
    ("FW system optimum", Obj.System_optimum, Solver.Frank_wolfe, 1e-4, 76,
     "baf8096460c8d136091f212c2f43a9e0");
    ("MSA Wardrop", Obj.Wardrop, Solver.Msa, 1e-4, 40, "9939e443190a3f17d7960b813a0d8ed3");
  ]

let test_bit_identity_golden () =
  (* 4·8·32 = 1024 edges, 12 commodities. *)
  let net = W.synthetic_city (Prng.create 1_024) ~rings:8 ~radials:32 ~commodities:12 () in
  List.iter
    (fun (name, obj, method_, tol, iterations, digest) ->
      let sol = Solver.solve ~tol ~max_iter:300 ~method_ ~jobs:1 obj net in
      Alcotest.(check int) (name ^ ": iterations") iterations sol.Solver.iterations;
      Alcotest.(check string) (name ^ ": edge-flow bits") digest (flow_digest sol.Solver.edge_flow))
    golden_solves

let test_unreachable_sink_rejected () =
  (* 0 -> 1 only; commodity asks 1 -> 0. *)
  let b = G.Digraph.builder ~num_nodes:2 in
  ignore (G.Digraph.add_edge b ~src:0 ~dst:1);
  let g = G.Digraph.freeze b in
  (* Rejection may come from Network.make's reachability check or, if
     construction were permissive, from the AON tree walk — either way
     the commodity must never be silently dropped. *)
  let build_and_solve () =
    let net =
      Net.make g
        ~latencies:[| Sgr_latency.Latency.affine ~slope:1.0 ~intercept:0.0 |]
        ~commodities:[| { Net.src = 1; dst = 0; demand = 1.0 } |]
    in
    Solver.solve Obj.Wardrop net
  in
  match build_and_solve () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unreachable sink must be rejected"

(* ---------------- flow decomposition ---------------- *)

let prop_decompose_conserves_and_recomposes =
  qcheck ~count:30 "decomposition conserves demand and recomposes bitwise" QCheck.small_nat
    (fun seed ->
      let net = if seed mod 2 = 0 then small_multi seed else small_city seed in
      let sol, flows = Solver.solve_flows ~tol:1e-6 Obj.Wardrop net in
      let d = Decompose.run ~flows net ~edge_flow:sol.Solver.edge_flow in
      let scale = Float.max 1.0 (Net.total_demand net) in
      Decompose.demand_error net d <= 1e-6 *. scale
      && Decompose.max_residual d <= 1e-9 *. scale
      && bitwise_equal (Decompose.recompose net d) sol.Solver.edge_flow
      && List.for_all
           (fun (pf : Decompose.path_flow) ->
             let c = net.Net.commodities.(pf.commodity) in
             pf.amount > 0.0
             && G.Paths.is_valid net.Net.graph ~src:c.Net.src ~dst:c.Net.dst pf.path)
           d.Decompose.path_flows)

let prop_decompose_single_commodity_default =
  qcheck ~count:20 "single-commodity decomposition needs no explicit split"
    QCheck.small_nat (fun seed ->
      let net = small_grid seed in
      let sol = Solver.solve ~tol:1e-6 Obj.System_optimum net in
      let d = Decompose.run net ~edge_flow:sol.Solver.edge_flow in
      bitwise_equal (Decompose.recompose net d) sol.Solver.edge_flow)

let contains_substring s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.equal (String.sub s i k) sub || at (i + 1)) in
  at 0

let test_decompose_multi_requires_flows () =
  let net = small_multi 3 in
  let sol = Solver.solve ~tol:1e-6 Obj.Wardrop net in
  match Decompose.run net ~edge_flow:sol.Solver.edge_flow with
  | exception Invalid_argument m ->
      check_true "error mentions solve_flows" (contains_substring m "solve_flows")
  | _ -> Alcotest.fail "aggregate multi-commodity decomposition must be refused"

let test_decompose_rejects_nonconserving () =
  let net = small_grid 1 in
  let m = G.Digraph.num_edges net.Net.graph in
  match Decompose.run net ~edge_flow:(Array.make m 0.5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-conserving flow must be rejected"

(* ---------------- TNTP importer ---------------- *)

let tntp_roundtrippable net =
  match Tntp.print_net net with
  | Error _ -> QCheck.assume_fail ()
  | Ok printed_net ->
      let printed_trips = Tntp.print_trips net in
      (match Tntp.parse ~net:printed_net ~trips:printed_trips with
      | Error m -> Alcotest.failf "reparse failed: %s" m
      | Ok net' -> (
          (* Structure survives one round trip... *)
          let ok_structure =
            G.Digraph.num_nodes net.Net.graph = G.Digraph.num_nodes net'.Net.graph
            && G.Digraph.num_edges net.Net.graph = G.Digraph.num_edges net'.Net.graph
            (* Commodities regroup by origin on parse, so the demand sum
               reassociates — compare up to rounding, not bitwise. *)
            && Float.abs (Net.total_demand net -. Net.total_demand net')
               <= 1e-12 *. Float.max 1.0 (Net.total_demand net)
          in
          (* ...and printing the reparse is a byte fixpoint. *)
          match Tntp.print_net net' with
          | Error m -> Alcotest.failf "reprint failed: %s" m
          | Ok printed2 ->
              ok_structure
              && String.equal printed_net printed2
              && String.equal printed_trips (Tntp.print_trips net')))

let prop_tntp_fixpoint =
  qcheck ~count:30 "TNTP print∘parse is a byte fixpoint" QCheck.small_nat (fun seed ->
      tntp_roundtrippable (small_city seed))

let prop_tntp_grid_fixpoint =
  qcheck ~count:20 "TNTP fixpoint on BPR grids" QCheck.small_nat (fun seed ->
      tntp_roundtrippable (small_grid seed))

let test_tntp_parse_errors () =
  let bad_net = "<NUMBER OF NODES> 2\n1 2 0.0 1 1 0.15 4 0 0 1 ;\n" in
  (match Tntp.parse ~net:bad_net ~trips:"" with
  | Error m -> check_true "capacity error carries a line number" (String.length m > 0)
  | Ok _ -> Alcotest.fail "zero capacity must be rejected");
  let beta_net = "<NUMBER OF NODES> 2\n1 2 1.0 1 1 0.15 0.5 0 0 1 ;\n" in
  (match Tntp.parse ~net:beta_net ~trips:"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "power < 1 must be rejected");
  let net = "<NUMBER OF NODES> 2\n1 2 1.0 1 1 0.15 4 0 0 1 ;\n" in
  match Tntp.parse ~net ~trips:"3 : 1.0 ;\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trips pair before any Origin must be rejected"

let test_tntp_importable_by_assign () =
  let rng = Prng.create 5 in
  let net = W.synthetic_city rng ~rings:2 ~radials:4 ~commodities:4 () in
  match Tntp.print_net net with
  | Error m -> Alcotest.failf "print failed: %s" m
  | Ok n -> (
      match Tntp.parse ~net:n ~trips:(Tntp.print_trips net) with
      | Error m -> Alcotest.failf "parse failed: %s" m
      | Ok net' ->
          let a = Solver.solve ~tol:1e-6 Obj.Wardrop net in
          let b = Solver.solve ~tol:1e-6 Obj.Wardrop net' in
          approx ~eps:1e-6 "same equilibrium cost through the round trip"
            (Net.cost net a.Solver.edge_flow)
            (Net.cost net' b.Solver.edge_flow))

(* ---------------- saturating path count (sgr info guard) ------------- *)

let test_count_matches_enumerate () =
  let net = small_grid 4 in
  let g = net.Net.graph in
  let c = net.Net.commodities.(0) in
  let n = List.length (G.Paths.enumerate g ~src:c.Net.src ~dst:c.Net.dst) in
  match G.Paths.count g ~src:c.Net.src ~dst:c.Net.dst with
  | `Exact n' -> Alcotest.(check int) "count = enumerate" n n'
  | `At_least _ -> Alcotest.fail "small grid must count exactly"

let test_count_exact_past_enumeration_cap () =
  (* 10x10 grid: C(18,9) = 48620 monotone paths — beyond enumerate's
     20k default cap, fine for the DP. *)
  let net = W.grid_network (Prng.create 1) ~rows:10 ~cols:10 () in
  let c = net.Net.commodities.(0) in
  match G.Paths.count net.Net.graph ~src:c.Net.src ~dst:c.Net.dst with
  | `Exact n -> Alcotest.(check int) "C(18,9)" 48620 n
  | `At_least _ -> Alcotest.fail "48620 is far below the cap"

let test_count_saturates () =
  (* 40x40 grid: C(78,39) ≈ 1.1e22 ≫ any int cap — the count must
     saturate instead of overflowing. *)
  let net = W.grid_network (Prng.create 1) ~rows:40 ~cols:40 () in
  let c = net.Net.commodities.(0) in
  (match G.Paths.count net.Net.graph ~src:c.Net.src ~dst:c.Net.dst with
  | `At_least cap -> check_true "saturated at a positive cap" (cap > 0)
  | `Exact n -> Alcotest.failf "expected saturation, got exact %d" n);
  (* A custom cap reports itself. *)
  match G.Paths.count ~cap:1000 net.Net.graph ~src:c.Net.src ~dst:c.Net.dst with
  | `At_least 1000 -> ()
  | _ -> Alcotest.fail "custom cap must be reported verbatim"

let test_count_cyclic_graph () =
  (* The city graph has two-edge cycles everywhere, exercising the DFS
     branch; counts still match enumeration. *)
  let net = small_city 2 in
  let g = net.Net.graph in
  let c = net.Net.commodities.(0) in
  let n = List.length (G.Paths.enumerate ~limit:200_000 g ~src:c.Net.src ~dst:c.Net.dst) in
  match G.Paths.count g ~src:c.Net.src ~dst:c.Net.dst with
  | `Exact n' -> Alcotest.(check int) "cyclic count = enumerate" n n'
  | `At_least _ -> Alcotest.fail "small city must count exactly"

let test_count_step_budget () =
  (* City-scale cyclic graphs would take astronomically long to reach
     the path cap by DFS; the step budget makes [count] bail with a
     lower bound instead of hanging `sgr info` (which it once did). *)
  let rng = Prng.create 5 in
  let net = W.synthetic_city rng ~rings:25 ~radials:100 () in
  let c = net.Net.commodities.(0) in
  match
    G.Paths.count ~max_steps:100_000 net.Net.graph ~src:c.Net.src ~dst:c.Net.dst
  with
  | `At_least n -> check_true "budget bail reports a nonnegative bound" (n >= 0)
  | `Exact _ -> Alcotest.fail "a 10^4-edge cyclic city cannot count exactly in 1e5 steps"

let suite =
  [
    prop_fw_matches_column_gen;
    prop_msa_matches_column_gen;
    prop_multicommodity_agreement;
    case "jobs 1 and jobs 4 are byte-identical" test_jobs_byte_identity;
    case "solve_flows preserves the aggregate bitwise" test_solve_flows_same_aggregate;
    case "FW/MSA edge flows match the recorded bit golden" test_bit_identity_golden;
    case "unreachable sink rejected" test_unreachable_sink_rejected;
    prop_decompose_conserves_and_recomposes;
    prop_decompose_single_commodity_default;
    case "multi-commodity decompose requires ~flows" test_decompose_multi_requires_flows;
    case "non-conserving flow rejected" test_decompose_rejects_nonconserving;
    prop_tntp_fixpoint;
    prop_tntp_grid_fixpoint;
    case "TNTP parse errors" test_tntp_parse_errors;
    case "TNTP round trip solves identically" test_tntp_importable_by_assign;
    case "Paths.count matches enumerate" test_count_matches_enumerate;
    case "Paths.count exact past the enumeration cap" test_count_exact_past_enumeration_cap;
    case "Paths.count saturates instead of overflowing" test_count_saturates;
    case "Paths.count on cyclic graphs" test_count_cyclic_graph;
    case "Paths.count bounds its DFS work" test_count_step_budget;
  ]
