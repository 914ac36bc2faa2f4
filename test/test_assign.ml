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
module Aon = Sgr_assign.Aon
module L = Sgr_latency.Latency

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

(* MSA's relative gap bounds the Beckmann objective, not the total
   cost: at gap 1e-5 the cost of grid 71 is still 1.7e-3 off column
   generation's. At 1e-6 the worst cost error over every grid
   [small_nat] can draw is 3.1e-4. *)
let msa_tol = 1e-6

let prop_msa_matches_column_gen =
  qcheck ~count:15 "edge-flow MSA matches the path-based engine (grid)" QCheck.small_nat
    (fun seed ->
      let net = small_grid seed in
      agreement Obj.Wardrop net ~method_:Solver.Msa ~tol:msa_tol)

let test_msa_grid_71 () =
  check_true "MSA agrees with column generation on grid 71"
    (agreement Obj.Wardrop (small_grid 71) ~method_:Solver.Msa ~tol:msa_tol)

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

(* 4·8·32 = 1024 edges, 12 commodities. *)
let city_1e3 () = W.synthetic_city (Prng.create 1_024) ~rings:8 ~radials:32 ~commodities:12 ()

(* 4·25·100 = 10^4 edges, 32 commodities: the city the repo benchmark
   assigns. *)
let city_1e4 () = W.synthetic_city (Prng.create 13_025) ~rings:25 ~radials:100 ~commodities:32 ()

(* 112 BPR edges, one commodity: the cities are all-affine, so these
   rows are the ones that pin the gradient and line search on a kind
   the kernels evaluate as a curve. *)
let bpr_grid () = W.grid_network (Prng.create 8_008) ~rows:8 ~cols:8 ()

(* Pinned iteration counts and edge-flow digests, each reproduced at
   every listed job count. Work on the solver kernels (Dijkstra, heap,
   AON, gradient, line search) must reproduce them: a change that alters
   a single bit of a solve — tie-breaking, summation order, early exit,
   a merge order that depends on the pool width — shows up here. *)
let golden_solves =
  [
    ("FW Wardrop", city_1e3, Obj.Wardrop, Solver.Frank_wolfe, 1e-6, [ 1 ], 107,
     "f0dce9c74aa74764e538ec467853966c");
    ("FW system optimum", city_1e3, Obj.System_optimum, Solver.Frank_wolfe, 1e-4, [ 1 ], 76,
     "baf8096460c8d136091f212c2f43a9e0");
    ("MSA Wardrop", city_1e3, Obj.Wardrop, Solver.Msa, 1e-4, [ 1 ], 40,
     "9939e443190a3f17d7960b813a0d8ed3");
    ("10^4-edge city FW Wardrop", city_1e4, Obj.Wardrop, Solver.Frank_wolfe, 1e-4, [ 1; 4 ], 39,
     "37583ab731b6ecb2e7046801bdb847c0");
    ("BPR grid FW Wardrop", bpr_grid, Obj.Wardrop, Solver.Frank_wolfe, 1e-5, [ 1 ], 37,
     "35146f9d3ceebc96dbfc5bff78571b5a");
    ("BPR grid FW system optimum", bpr_grid, Obj.System_optimum, Solver.Frank_wolfe, 1e-5, [ 1 ],
     109, "e808408d259bacd184be60fec5fdf205");
    ("BPR grid MSA Wardrop", bpr_grid, Obj.Wardrop, Solver.Msa, 1e-4, [ 1 ], 41,
     "de9b6f5310bb430695e32be3f80b1eba");
  ]

let test_bit_identity_golden () =
  List.iter
    (fun (name, city, obj, method_, tol, jobs, iterations, digest) ->
      let net = city () in
      List.iter
        (fun jobs ->
          let name = Printf.sprintf "%s at jobs=%d" name jobs in
          let sol = Solver.solve ~tol ~max_iter:300 ~method_ ~jobs obj net in
          Alcotest.(check int) (name ^ ": iterations") iterations sol.Solver.iterations;
          check_true (name ^ ": gap within tol") (sol.Solver.relative_gap <= tol);
          Alcotest.(check string) (name ^ ": edge-flow bits") digest
            (flow_digest sol.Solver.edge_flow))
        jobs)
    golden_solves

(* An edge whose latency is infinite at zero flow (an M/M/1 link
   pre-loaded past its capacity) is refused before the first AON, by
   both methods and criteria and with or without the commodity split,
   naming the edge: the gap scan would otherwise multiply its infinite
   gradient by a zero direction and run every iteration on nan. *)
let test_infinite_zero_flow_latency_refused () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  let line = L.affine ~slope:1.0 ~intercept:1.0 in
  let net =
    Net.make g
      ~latencies:[| line; line; L.shift 3.0 (L.mm1 ~capacity:2.0) |]
      ~commodities:[| { Net.src = 0; dst = 2; demand = 1.0 } |]
  in
  List.iter
    (fun (obj, what) ->
      let expected =
        Printf.sprintf "Solver.solve: the %s of edge 2 is not finite at zero flow" what
      in
      List.iter
        (fun method_ ->
          let refused f =
            match f () with
            | _ -> Alcotest.failf "%s solve of an infinite latency returned" what
            | exception Invalid_argument m -> Alcotest.(check string) "message" expected m
          in
          refused (fun () -> ignore (Solver.solve ~method_ obj net));
          refused (fun () -> ignore (Solver.solve_flows ~method_ obj net)))
        [ Solver.Frank_wolfe; Solver.Msa ])
    [ (Obj.Wardrop, "latency"); (Obj.System_optimum, "marginal cost") ]

(* Commodity 1's only path is an M/M/1 edge of capacity 2 and it
   carries 3: the first all-or-nothing step loads the edge past its
   capacity, where its latency is infinite, so the next one finds no
   path of finite latency for it, while commodity 0 still has one. The
   sink is reachable: the solver names the flow as the cause, and the
   commodity, not the graph. *)
let test_no_finite_path_named () =
  let g = G.Digraph.of_edges ~num_nodes:3 [ (0, 1); (1, 2) ] in
  let net =
    Net.make g
      ~latencies:[| L.affine ~slope:1.0 ~intercept:1.0; L.mm1 ~capacity:2.0 |]
      ~commodities:
        [| { Net.src = 0; dst = 1; demand = 1.0 }; { Net.src = 1; dst = 2; demand = 3.0 } |]
  in
  List.iter
    (fun (obj, what) ->
      let expected =
        Printf.sprintf
          "Solver.solve: no path of finite %s at the current flow for commodity 1 from node 1 \
           to node 2"
          what
      in
      List.iter
        (fun method_ ->
          let refused f =
            match f () with
            | _ -> Alcotest.failf "%s solve past the capacity returned" what
            | exception Invalid_argument m -> Alcotest.(check string) "message" expected m
          in
          refused (fun () -> ignore (Solver.solve ~method_ obj net));
          refused (fun () -> ignore (Solver.solve_flows ~method_ obj net)))
        [ Solver.Frank_wolfe; Solver.Msa ])
    [ (Obj.Wardrop, "latency"); (Obj.System_optimum, "marginal cost") ]

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

(* ---------------- goal-directed all-or-nothing ---------------- *)

let counter name = Sgr_obs.Obs.value (Sgr_obs.Obs.counter name)

(* Increments of the named counters while [f] runs. *)
let counting names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> counter name - b) names before)

(* A network on a two-way ring of n nodes plus random chords, with
   integer affine latencies: AON weights are integers at or above free
   flow, so shortest paths tie often. Commodities may share a source
   (a multi-sink tree, which runs plain) or a whole source-sink pair. *)
let tie_network rng =
  let n = 4 + Prng.int rng 20 in
  let b = G.Digraph.builder ~num_nodes:n in
  let lats = ref [] in
  let add u v =
    ignore (G.Digraph.add_edge b ~src:u ~dst:v);
    let slope = float_of_int (Prng.int rng 3) and intercept = float_of_int (1 + Prng.int rng 3) in
    lats := L.affine ~slope ~intercept :: !lats
  in
  for v = 0 to n - 1 do
    add v ((v + 1) mod n);
    add ((v + 1) mod n) v
  done;
  for _ = 1 to Prng.int rng (2 * n) do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then add u v
  done;
  let commodities =
    Array.init (1 + Prng.int rng 6) (fun _ ->
        let src = Prng.int rng 4 in
        let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
        { Net.src; dst; demand = float_of_int (1 + Prng.int rng 3) })
  in
  Net.make (G.Digraph.freeze b) ~latencies:(Array.of_list (List.rev !lats)) ~commodities

(* Test-only oracle: route each commodity, in commodity order, down the
   path of a plain targeted Dijkstra. *)
let aon_oracle (net : Net.t) ~weights =
  let flow = Array.make (G.Digraph.num_edges net.Net.graph) 0.0 in
  Array.iter
    (fun (c : Net.commodity) ->
      match G.Dijkstra.shortest_path net.Net.graph ~weights ~src:c.src ~dst:c.dst with
      | Some path -> List.iter (fun e -> flow.(e) <- flow.(e) +. c.demand) path
      | None -> Alcotest.fail "oracle: unreachable sink")
    net.Net.commodities;
  flow

let prop_aon_matches_plain_oracle =
  qcheck ~count:200 "AON flows equal plain per-commodity Dijkstra, bitwise" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 2_100) in
      let net = tie_network rng in
      let m = G.Digraph.num_edges net.Net.graph in
      let plan = Aon.plan net in
      let into = Array.make m 0.0 in
      (* Free flow, then latencies and marginals at integer loads. *)
      let load = Array.init m (fun _ -> float_of_int (Prng.int rng 3)) in
      List.for_all
        (fun weights ->
          Aon.assign ~jobs:1 plan net ~weights ~into;
          bitwise_equal into (aon_oracle net ~weights))
        [
          Net.edge_latencies net (Array.make m 0.0);
          Net.edge_latencies net load;
          Net.edge_marginals net load;
        ])

(* The same network with every latency behind an opaque [Custom]
   wrapper: identical values, but the plan cannot trust them to grow. *)
let opaque (net : Net.t) =
  let wrap l = L.custom ~eval:(L.eval l) ~deriv:(L.deriv l) ~primitive:(L.primitive l) () in
  Net.make net.Net.graph ~latencies:(Array.map wrap net.Net.latencies)
    ~commodities:net.Net.commodities

let with_latency (net : Net.t) e l =
  let lats = Array.copy net.Net.latencies in
  lats.(e) <- l;
  Net.make net.Net.graph ~latencies:lats ~commodities:net.Net.commodities

let test_plain_when_potential_unsafe () =
  let net = small_city 3 in
  let reverse_runs net = snd (counting [ "dijkstra.runs" ] (fun () -> Aon.plan net)) in
  (* One reverse run per distinct sink of a source that serves one sink
     only; sources serving several run plain. *)
  let ks = Array.to_list net.Net.commodities in
  let sinks_of src =
    List.sort_uniq Int.compare
      (List.filter_map (fun (c : Net.commodity) -> if c.src = src then Some c.dst else None) ks)
  in
  let goal_sinks =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (c : Net.commodity) ->
           match sinks_of c.src with [ t ] -> Some t | _ -> None)
         ks)
  in
  check_true "some source serves one sink" (goal_sinks <> []);
  Alcotest.(check (list int)) "goal-directed plan" [ List.length goal_sinks ]
    (reverse_runs net);
  let custom_one = with_latency net 0 (opaque net).Net.latencies.(0) in
  Alcotest.(check (list int)) "a Custom latency: plain" [ 0 ] (reverse_runs custom_one);
  let shifted = with_latency net 0 (L.shift 0.5 (opaque net).Net.latencies.(0)) in
  Alcotest.(check (list int)) "a Shifted Custom latency: plain" [ 0 ] (reverse_runs shifted);
  let zero = with_latency net 0 (L.linear 1.0) in
  Alcotest.(check (list int)) "a zero free-flow latency: plain" [ 0 ] (reverse_runs zero);
  (* Plain or not, the solve is the same. *)
  let a = Solver.solve ~tol:1e-6 Obj.Wardrop net in
  let b = Solver.solve ~tol:1e-6 Obj.Wardrop (opaque net) in
  check_true "opaque latencies solve bitwise alike" (bitwise_equal a.Solver.edge_flow b.Solver.edge_flow);
  Alcotest.(check int) "same iterations" a.Solver.iterations b.Solver.iterations

let test_margin_guard_trips () =
  (* One edge 10^7 times lighter at free flow than the rest puts the key
     bound (1e-9 · 1e-7 / (4·epsilon_float) ≈ 0.11) below every source's
     key: each goal-directed tree reruns plain, and the solve is the
     plain one. *)
  let net = with_latency (small_city 5) 0 (L.affine ~slope:1.0 ~intercept:1e-7) in
  let sol, moved =
    counting [ "dijkstra.goal_fallbacks"; "assign.dijkstra_trees" ] (fun () ->
        Solver.solve ~tol:1e-6 ~jobs:1 Obj.Wardrop net)
  in
  (match moved with
  | [ fallbacks; trees ] ->
      check_true "the guard fires" (fallbacks > 0);
      check_true "at most once per tree" (fallbacks <= trees)
  | _ -> assert false);
  let plain = Solver.solve ~tol:1e-6 ~jobs:1 Obj.Wardrop (opaque net) in
  check_true "fallback flows equal the plain solve"
    (bitwise_equal sol.Solver.edge_flow plain.Solver.edge_flow)

(* A sink that a call's weights cut off raises, even right after a call
   that reached it: the chains a tree keeps are read from its own run,
   never from an earlier one. Node 3 is entered only through the M/M/1
   edge 2 -> 3, whose latency is infinite at capacity. Sources 0 and 1
   each serve one sink (goal-directed trees); source 0 serving sinks 3
   and 2 runs plain, and so does the whole network behind a Custom
   latency. *)
let test_aon_cut_off_sink_raises () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let lats =
    [| L.affine ~slope:1.0 ~intercept:1.0; L.affine ~slope:1.0 ~intercept:1.0; L.constant 3.0;
       L.mm1 ~capacity:2.0 |]
  in
  let commodity src dst = { Net.src; dst; demand = 1.0 } in
  List.iter
    (fun (name, lats, commodities) ->
      let net = Net.make g ~latencies:lats ~commodities in
      let plan = Aon.plan net in
      let into = Array.make 4 0.0 in
      let open_road = Net.edge_latencies net (Array.make 4 0.0) in
      let cut = Net.edge_latencies net [| 0.0; 0.0; 0.0; 2.0 |] in
      check_true (name ^ ": the cut is infinite") (cut.(3) = Float.infinity);
      List.iter
        (fun jobs ->
          Aon.assign ~jobs plan net ~weights:open_road ~into;
          let reached = Array.copy into in
          check_true (name ^ ": flows match the oracle")
            (bitwise_equal reached (aon_oracle net ~weights:open_road));
          (match Aon.assign ~jobs plan net ~weights:cut ~into with
          | exception Invalid_argument m ->
              Alcotest.(check string) (name ^ ": message")
                "Aon.assign: commodity 0 cannot reach node 3 from node 0" m
          | () -> Alcotest.failf "%s: a cut-off sink was routed at jobs %d" name jobs);
          Alcotest.(check (option int)) (name ^ ": unreached") (Some 0) (Aon.unreached plan);
          Aon.assign ~jobs plan net ~weights:open_road ~into;
          Alcotest.(check (option int)) (name ^ ": all reached") None (Aon.unreached plan);
          check_true (name ^ ": the next call reaches it again") (bitwise_equal reached into))
        [ 1; 2 ])
    [
      ("goal-directed", lats, [| commodity 0 3; commodity 1 3 |]);
      ("multi-sink", lats, [| commodity 0 3; commodity 0 2 |]);
      ( "opaque",
        Array.map (fun l -> L.custom ~eval:(L.eval l) ~deriv:(L.deriv l) ()) lats,
        [| commodity 0 3; commodity 1 3 |] );
    ]

(* Weights of the wrong length are refused by name before [into] or a
   tree's workspace is touched, and the plan routes the next call as a
   fresh one would. *)
let test_aon_wrong_weight_length_refused () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let lats = Array.init 4 (fun e -> L.affine ~slope:1.0 ~intercept:(float_of_int (1 + e))) in
  List.iter
    (fun commodities ->
      let net = Net.make g ~latencies:lats ~commodities in
      let plan = Aon.plan net in
      let weights = Net.edge_latencies net (Array.make 4 0.0) in
      List.iter
        (fun bad ->
          let into = Array.make 4 7.0 in
          (match Aon.assign ~jobs:1 plan net ~weights:bad ~into with
          | exception Invalid_argument m ->
              Alcotest.(check string) "message" "Aon.assign: weight array has the wrong length" m
          | () -> Alcotest.failf "assigned on %d weights" (Array.length bad));
          check_true "into untouched" (Array.for_all (fun x -> x = 7.0) into);
          Aon.assign ~jobs:1 plan net ~weights ~into;
          check_true "the next call matches the oracle"
            (bitwise_equal into (aon_oracle net ~weights)))
        [ [| 1.0 |]; Array.make 5 1.0 ])
    [
      [| { Net.src = 0; dst = 3; demand = 1.0 } |];
      [| { Net.src = 0; dst = 3; demand = 1.0 }; { Net.src = 0; dst = 2; demand = 2.0 } |];
    ]

(* A goal-directed plan keeps each tree's chain from one call to the
   next, as edge ids of the network it was built for, and maps that
   network's commodities to trees: with a network of another edge or
   commodity count it is refused before [into] is touched. *)
let test_aon_foreign_plan_refused () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let g5 = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3) ] in
  let line = L.affine ~slope:1.0 ~intercept:1.0 in
  let one = [| { Net.src = 0; dst = 3; demand = 1.0 } |] in
  let net = Net.make g ~latencies:(Array.make 4 line) ~commodities:one in
  let plan = Aon.plan net in
  List.iter
    (fun (other : Net.t) ->
      let m = G.Digraph.num_edges other.Net.graph in
      let into = Array.make m 7.0 in
      (match Aon.assign ~jobs:1 plan other ~weights:(Array.make m 1.0) ~into with
      | exception Invalid_argument msg ->
          Alcotest.(check string) "message" "Aon.assign: the plan was built for another network"
            msg
      | () -> Alcotest.fail "assigned with another network's plan");
      check_true "into untouched" (Array.for_all (fun x -> x = 7.0) into))
    [
      Net.make g5 ~latencies:(Array.make 5 line) ~commodities:one;
      Net.make g ~latencies:(Array.make 4 line)
        ~commodities:(Array.append one [| { Net.src = 1; dst = 3; demand = 1.0 } |]);
    ]

(* Unvalidated negative weights break the kernel's contract. With
   weights 1, -5, 1, 1 on 0->1, 1->2, 2->1, 1->3 the tree relabels the
   settled node 1 through 2->1, and its predecessor edges close the
   cycle 1->2->1. Reading the chain of sink 3 then stops after n - 1 = 3
   edges, the most a simple path has, and names the fault; it used to
   follow the cycle, doubling the chain buffer until memory ran out.
   The plan routes the next call as a fresh one would. *)
let test_aon_predecessor_cycle_refused () =
  let g = G.Digraph.of_edges ~num_nodes:4 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let net =
    Net.make g
      ~latencies:(Array.make 4 (L.affine ~slope:1.0 ~intercept:1.0))
      ~commodities:[| { Net.src = 0; dst = 3; demand = 1.0 } |]
  in
  let plan = Aon.plan net in
  let into = Array.make 4 0.0 in
  List.iter
    (fun jobs ->
      (match Aon.assign ~jobs plan net ~weights:[| 1.0; -5.0; 1.0; 1.0 |] ~into with
      | exception Invalid_argument m ->
          Alcotest.(check string) "message"
            "Aon.assign: the predecessor chain of node 3 does not reach node 0 within 3 edges \
             (negative weights?)"
            m
      | () -> Alcotest.failf "a cyclic chain was routed at jobs %d" jobs);
      Alcotest.(check (option int)) "unreached after the refusal" (Some 0) (Aon.unreached plan);
      Aon.assign ~jobs plan net ~weights:(Array.make 4 1.0) ~into;
      Alcotest.(check (array (float 0.0))) "the next call routes 0 -> 1 -> 3"
        [| 1.0; 0.0; 0.0; 1.0 |] into)
    [ 1; 2 ]

(* ---------------- deterministic performance gates ---------------- *)

(* One Wardrop solve of the 10^4-edge city at jobs 1: 39 iterations, 31
   free-flow reverse runs (one per distinct sink, each stopping at the
   farthest source that uses it) and goal-directed trees that push no
   node past their last chain's cost. Plain targeted trees relax
   8,203,228 edges here; with full reverse runs and no pruning the solve
   relaxed 1,183,566 edges and pushed 509,402 heap entries. A change that
   loses the potential, the pruning bound, or breaks a tie differently,
   moves these counts. So does the order in which the heap pops equal
   keys, though no label, chain or flow depends on it: it decides what a
   run that stops early relaxes before its last target. *)
let test_city_solve_counts () =
  let net = city_1e4 () in
  let _, moved =
    counting
      [
        "assign.iterations"; "dijkstra.relaxations"; "dijkstra.heap_pushes";
        "dijkstra.goal_fallbacks";
      ]
      (fun () -> Solver.solve ~tol:1e-4 ~jobs:1 Obj.Wardrop net)
  in
  Alcotest.(check (list int)) "iterations, relaxations, heap pushes, fallbacks"
    [ 39; 1_075_060; 291_421; 0 ] moved

let test_aon_allocation () =
  let net = city_1e4 () in
  let m = G.Digraph.num_edges net.Net.graph in
  let weights = Net.edge_latencies net (Array.make m 0.0) in
  let into = Array.make m 0.0 in
  let plan = Aon.plan net in
  Aon.assign ~jobs:1 plan net ~weights ~into;
  let w0 = Gc.minor_words () in
  Aon.assign ~jobs:1 plan net ~weights ~into;
  let bytes = (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8) in
  if bytes >= 1024.0 then Alcotest.failf "Aon.assign allocated %.0f bytes" bytes

(* One Wardrop solve of the 10^4-edge city at jobs 1, after a warm-up
   solve, allocates 2.0 MB: the plan's potentials and the solver's
   arrays. A float boxed around each latency evaluation of
   the gradient and the line search would add about 38 MB. The count is
   exact ([allocated_bytes]), so it repeats. *)
let test_city_solve_allocation () =
  let net = city_1e4 () in
  let solve () = ignore (Solver.solve ~tol:1e-4 ~jobs:1 Obj.Wardrop net) in
  solve ();
  let (), bytes = allocated_bytes solve in
  if bytes >= 4e6 then Alcotest.failf "a 10^4-city solve allocated %.0f bytes" bytes

(* The same solve evaluates 75,152 latencies: two whole gradients of
   10^4 edges (at zero flow and after the first AON), then 38 refreshes
   on the support of the step before (22,576 entries), 10^4 free-flow
   values in the plan, and one model pass over each of the 38 line
   searches' supports (the same 22,576 entries). The line's affine model
   decides every bisection probe, so no probe sums the support, and the
   bisections take the 1,292 steps they took when each of the 1,368
   probes was a full sum and the solve evaluated 865,312 latencies. The
   array kernels count every entry they evaluate, once per call. *)
let test_city_solve_evaluations () =
  let net = city_1e4 () in
  let _, moved =
    counting
      [ "latency.evaluations"; "latency.full_sum_probes"; "bisection.iterations" ]
      (fun () -> Solver.solve ~tol:1e-4 ~jobs:1 Obj.Wardrop net)
  in
  Alcotest.(check (list int))
    "latency evaluations, full-sum probes, bisection steps" [ 75_152; 0; 1_292 ] moved

(* ---------------- pruned goal trees across calls ---------------- *)

(* A two-way ring of integer affine latencies (distances tie often),
   and a long chain from a ring node to an extra sink whose last edge
   is M/M/1: its free-flow weight 1/c is tiny next to the chain's cost,
   and at load c it is infinite, cutting the sink off. Commodities from
   several ring sources share that sink (several trees, one potential),
   and a few more go to ring nodes, sharing a source or a whole pair. *)
let chain_network rng =
  let n = 4 + Prng.int rng 12 and len = 5 + Prng.int rng 40 in
  let sink = n + len in
  let b = G.Digraph.builder ~num_nodes:(sink + 1) in
  let lats = ref [] in
  let add u v l =
    ignore (G.Digraph.add_edge b ~src:u ~dst:v);
    lats := l :: !lats
  in
  let integer () =
    L.affine ~slope:(float_of_int (Prng.int rng 3)) ~intercept:(float_of_int (1 + Prng.int rng 3))
  in
  for v = 0 to n - 1 do
    add v ((v + 1) mod n) (integer ());
    add ((v + 1) mod n) v (integer ())
  done;
  (* The chain n, n + 1, ..., sink - 1, entered from ring node 0. *)
  add 0 n (integer ());
  for v = n to sink - 2 do
    add v (v + 1) (integer ())
  done;
  let capacity = [| 2.0; 100.0; 1000.0 |].(Prng.int rng 3) in
  add (sink - 1) sink (L.mm1 ~capacity);
  let commodity src dst = { Net.src; dst; demand = float_of_int (1 + Prng.int rng 3) } in
  let to_sink = List.init (1 + Prng.int rng 3) (fun _ -> commodity (Prng.int rng n) sink) in
  let on_ring =
    List.init (Prng.int rng 3) (fun _ ->
        let src = Prng.int rng n in
        commodity src ((src + 1 + Prng.int rng (n - 1)) mod n))
  in
  let commodities = Array.of_list (to_sink @ on_ring) in
  Prng.shuffle rng commodities;
  (Net.make (G.Digraph.freeze b) ~latencies:(Array.of_list (List.rev !lats)) ~commodities, capacity)

let prop_pruned_trees_match_plain =
  qcheck ~count:300 "AON reused across weights equals plain Dijkstra, bitwise, or raises alike"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 2_800) in
      let net, capacity = chain_network rng in
      let m = G.Digraph.num_edges net.Net.graph in
      let plan = Aon.plan net in
      let into = Array.make m 0.0 in
      let weights () =
        (* At or above free flow: latencies or marginals at integer
           loads below the M/M/1 capacity (the last edge), now and then
           at it. *)
        let load = Array.init m (fun _ -> float_of_int (Prng.int rng 2)) in
        if Prng.int rng 4 = 0 then load.(m - 1) <- capacity;
        match Prng.int rng 3 with
        | 0 -> Net.edge_latencies net (Array.make m 0.0)
        | 1 -> Net.edge_latencies net load
        | _ -> Net.edge_marginals net load
      in
      List.for_all
        (fun _ ->
          let weights = weights () in
          let jobs = 1 + Prng.int rng 2 in
          let cut =
            List.find_opt
              (fun (_, (c : Net.commodity)) ->
                G.Dijkstra.shortest_path net.Net.graph ~weights ~src:c.src ~dst:c.dst = None)
              (List.mapi (fun i c -> (i, c)) (Array.to_list net.Net.commodities))
          in
          match (cut, Aon.assign ~jobs plan net ~weights ~into) with
          | None, () -> bitwise_equal into (aon_oracle net ~weights)
          | Some (i, c), () ->
              QCheck.Test.fail_reportf "commodity %d (%d -> %d) was routed past a cut" i c.src
                c.dst
          | exception Invalid_argument m -> (
              match cut with
              | Some (i, c) ->
                  String.equal m
                    (Printf.sprintf "Aon.assign: commodity %d cannot reach node %d from node %d" i
                       c.dst c.src)
              | None -> QCheck.Test.fail_reportf "raised %s" m))
        (List.init (2 + Prng.int rng 3) Fun.id))

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
    case "edge-flow MSA matches the path-based engine (grid 71)" test_msa_grid_71;
    prop_aon_matches_plain_oracle;
    case "AON runs plain when the potential is unsafe" test_plain_when_potential_unsafe;
    case "AON margin guard reruns plain" test_margin_guard_trips;
    case "perf gate: 10^4-city solve relaxations and iterations" test_city_solve_counts;
    case "perf gate: Aon.assign allocates under 1 KB" test_aon_allocation;
    case "AON raises for a sink its weights cut off" test_aon_cut_off_sink_raises;
    case "perf gate: 10^4-city solve allocates under 4 MB" test_city_solve_allocation;
    case "perf gate: 10^4-city solve latency evaluations" test_city_solve_evaluations;
    prop_pruned_trees_match_plain;
    case "AON refuses a weight array of the wrong length" test_aon_wrong_weight_length_refused;
    case "infinite latency at zero flow refused" test_infinite_zero_flow_latency_refused;
    case "AON refuses another network's plan" test_aon_foreign_plan_refused;
    case "no path of finite latency named" test_no_finite_path_named;
    case "AON refuses a predecessor cycle from negative weights" test_aon_predecessor_cycle_refused;
  ]
