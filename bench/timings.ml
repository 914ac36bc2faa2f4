(* Bechamel timing suite (T1-T8, T13): exercises the paper's
   polynomial-time claims and the substrates under them. One Test.make
   per measured configuration, all collected into a single run; results
   are printed as one OLS-estimated time per test. Timings only: the
   deterministic checks (job-count identity, zero bisection on affine
   links, memo hits, edge-flow goldens) are `dune runtest` cases. *)

open Bechamel
module Links = Sgr_links.Links
module W = Sgr_workloads.Workloads
module Eq = Sgr_network.Equilibrate
module Solver = Sgr_assign.Solver
module Obj = Sgr_network.Objective
module Prng = Sgr_numerics.Prng

let links_instance m = W.random_affine_links (Prng.create (1000 + m)) ~m ~demand:1.0 ()
let mixed_instance m = W.random_polynomial_links (Prng.create (2000 + m)) ~m ~demand:1.0 ()

let layered seed ~layers ~width =
  W.random_layered_network (Prng.create seed) ~layers ~width ~extra_edges:width ()

(* T1: water-filling solvers vs system size. [nash]/[opt] run the one
   engine, Newton on the level: on the affine games it starts at the
   all-active line root and each step is one pass over the lines, on the
   polynomial (b + c·x^d) games each step is one pass of the level
   table's kernels. The [induced] rows solve the followers' equilibrium
   under a leader holding 0.37 of each link's optimal flow, the shifted
   solve LLF and SCALE repeat per α. The [water_fill] rows are the
   bisection reference on the same instances. *)
let t1 () =
  let make family instance name prepare =
    List.map
      (fun m ->
        let solve = prepare (instance m) in
        Test.make ~name:(Printf.sprintf "%s/%s/m=%d" name family m) (Staged.stage solve))
      [ 10; 100; 1000 ]
  in
  let rows family instance =
    make family instance "nash" (fun t () -> ignore (Links.nash t))
    @ make family instance "opt" (fun t () -> ignore (Links.opt t))
    @ make family instance "induced" (fun t ->
          let strategy = Array.map (fun o -> 0.37 *. o) (Links.opt t).assignment in
          fun () -> ignore (Links.induced t ~strategy))
    @ make family instance "water-fill-nash" (fun t () -> ignore (Links.water_fill `Nash t))
    @ make family instance "water-fill-opt" (fun t () -> ignore (Links.water_fill `Opt t))
  in
  Test.make_grouped ~name:"T1 water-filling"
    (rows "affine" links_instance @ rows "poly" mixed_instance)

(* T2: OpTop vs system size (the paper's headline polynomial algorithm). *)
let t2 () =
  Test.make_grouped ~name:"T2 optop"
    (List.map
       (fun m ->
         let t = mixed_instance m in
         Test.make ~name:(Printf.sprintf "optop/m=%d" m)
           (Staged.stage (fun () -> ignore (Stackelberg.Optop.run t))))
       [ 10; 100; 500 ])

(* T3: Theorem 2.4's exact solver vs size. *)
let t3 () =
  Test.make_grouped ~name:"T3 linear-exact"
    (List.map
       (fun m ->
         let t = W.random_common_slope_links (Prng.create (3000 + m)) ~m ~demand:1.0 () in
         let beta = Stackelberg.Optop.beta t in
         let alpha = 0.7 *. Float.max 0.05 beta in
         Test.make ~name:(Printf.sprintf "thm2.4/m=%d" m)
           (Staged.stage (fun () -> ignore (Stackelberg.Linear_exact.solve t ~alpha))))
       [ 4; 8; 16 ])

(* T4: network equilibrium solvers on layered DAGs. *)
let t4 () =
  let nets = [ (1, 2); (2, 3); (3, 3) ] in
  Test.make_grouped ~name:"T4 network solvers"
    (List.concat_map
       (fun (layers, width) ->
         let net = layered (4000 + (10 * layers) + width) ~layers ~width in
         [
           Test.make ~name:(Printf.sprintf "equilibrate/l%dw%d" layers width)
             (Staged.stage (fun () -> ignore (Eq.solve Obj.Wardrop net)));
           Test.make ~name:(Printf.sprintf "frank-wolfe/l%dw%d" layers width)
             (Staged.stage (fun () ->
                  ignore (Solver.solve ~tol:1e-6 ~max_iter:100_000 Obj.Wardrop net)));
           Test.make ~name:(Printf.sprintf "msa/l%dw%d" layers width)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve ~method_:Solver.Msa ~tol:1e-4 ~max_iter:200_000 Obj.Wardrop
                       net)));
         ])
       nets)

(* T5: MOP end to end on the paper's graphs and a grid. *)
let t5 () =
  let fig7 = W.fig7 () in
  let braess = W.braess_classic () in
  let grid = W.grid_network (Prng.create 5001) ~rows:3 ~cols:3 ~demand:2.0 () in
  let two = W.two_commodity () in
  Test.make_grouped ~name:"T5 mop"
    [
      Test.make ~name:"mop/fig7" (Staged.stage (fun () -> ignore (Stackelberg.Mop.run fig7)));
      Test.make ~name:"mop/braess" (Staged.stage (fun () -> ignore (Stackelberg.Mop.run braess)));
      Test.make ~name:"mop/grid3x3" (Staged.stage (fun () -> ignore (Stackelberg.Mop.run grid)));
      Test.make ~name:"mop/2-commodity"
        (Staged.stage (fun () -> ignore (Stackelberg.Mop.run two)));
    ]

(* T6: substrate microbenchmarks. The [dijkstra-ws] row reuses one
   workspace across runs, as the solvers do. The two [city1e4] rows are
   one all-or-nothing tree of the 10^4-edge city at free flow: a plain
   point-to-point search, and the goal-directed one on the free-flow
   potential, which is exact there, so the search walks only its
   chain. The [loaded] rows run at the gradient of a converged
   Frank–Wolfe solve of that city, the weights a solve's trees see:
   the same goal-directed tree, one all-or-nothing assignment of all 32
   trees on one domain, and one line search along the direction that
   assignment gives, gathered and bisected as the solver does. The
   [plan] row builds the all-or-nothing plan of that city, as every
   solve does once: its 31 reverse searches, one per distinct goal
   sink, each stopping at the farthest source that uses it. The
   [heap] row is the kernel's heap alone, in the shape a loaded
   goal-directed tree gives it: 1,000 push/pop pairs against a steady
   43 entries whose keys rise slowly, each pushed key a little above
   the last popped one. *)
let t6 () =
  let g = (W.grid_network (Prng.create 6001) ~rows:6 ~cols:6 ()).Sgr_network.Network.graph in
  let m = Sgr_graph.Digraph.num_edges g in
  let weights = Array.init m (fun i -> 0.1 +. (0.01 *. float_of_int i)) in
  let caps = Array.make m 1.0 in
  let workspace = Sgr_graph.Dijkstra.workspace () in
  let city = W.synthetic_city (Prng.create 13_025) ~rings:25 ~radials:100 ~commodities:32 () in
  let city_g = city.Sgr_network.Network.graph in
  let free_flow =
    Sgr_network.Network.edge_latencies city (Array.make (Sgr_graph.Digraph.num_edges city_g) 0.0)
  in
  let { Sgr_network.Network.src; dst; _ } = city.Sgr_network.Network.commodities.(0) in
  let goal = Sgr_graph.Dijkstra.goal city_g ~lower:free_flow ~sink:dst in
  let city_ws = Sgr_graph.Dijkstra.workspace () in
  let solved = (Solver.solve ~tol:1e-4 ~jobs:1 Obj.Wardrop city).Solver.edge_flow in
  let loaded = Sgr_network.Network.edge_latencies city solved in
  let plan = Sgr_assign.Aon.plan city in
  let into = Array.make (Array.length loaded) 0.0 in
  Sgr_assign.Aon.assign ~jobs:1 plan city ~weights:loaded ~into;
  let entries =
    Array.of_list
      (List.filter
         (fun e -> Float.abs (into.(e) -. solved.(e)) > 0.0)
         (List.init (Array.length solved) Fun.id))
  in
  let dirs = Array.map (fun e -> into.(e) -. solved.(e)) entries in
  let module K = Sgr_latency.Latency.Kernels in
  let line = K.line city.Sgr_network.Network.latencies in
  let line_search () =
    K.gather line ~marginal:false ~base:solved ~entries ~dirs ~len:(Array.length entries);
    Sgr_numerics.Minimize.line_search_convex ~df:(K.slope_sign line) ~lo:0.0 ~hi:1.0 ()
  in
  let module Heap = Sgr_graph.Dijkstra.Heap in
  let heap = Heap.create () and live = 43 in
  let keys = Array.make live 0.0 in
  let jitter =
    let rng = Prng.create 6043 in
    Array.init 1024 (fun _ -> Prng.float rng)
  in
  let pushed = ref 0 in
  let push v =
    keys.(v) <- (0.001 *. float_of_int !pushed) +. (0.05 *. jitter.(!pushed land 1023));
    incr pushed;
    Heap.insert heap keys v
  in
  for v = 0 to live - 1 do
    push v
  done;
  Test.make_grouped ~name:"T6 substrates"
    [
      Test.make ~name:"dijkstra/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Dijkstra.run g ~weights ~source:0)));
      Test.make ~name:"dijkstra-ws/grid6x6"
        (Staged.stage (fun () ->
             ignore (Sgr_graph.Dijkstra.run ~workspace g ~weights ~source:0)));
      Test.make ~name:"dijkstra-p2p/city1e4"
        (Staged.stage (fun () ->
             ignore
               (Sgr_graph.Dijkstra.run ~workspace:city_ws ~targets:[| dst |] city_g
                  ~weights:free_flow ~source:src)));
      Test.make ~name:"dijkstra-goal/city1e4"
        (Staged.stage (fun () ->
             ignore
               (Sgr_graph.Dijkstra.run ~workspace:city_ws ~goal city_g ~weights:free_flow
                  ~source:src)));
      Test.make ~name:"dijkstra-goal/city1e4-loaded"
        (Staged.stage (fun () ->
             ignore
               (Sgr_graph.Dijkstra.run ~workspace:city_ws ~goal city_g ~weights:loaded
                  ~source:src)));
      Test.make ~name:"aon/city1e4-loaded"
        (Staged.stage (fun () -> Sgr_assign.Aon.assign ~jobs:1 plan city ~weights:loaded ~into));
      Test.make ~name:"plan/city1e4" (Staged.stage (fun () -> ignore (Sgr_assign.Aon.plan city)));
      Test.make ~name:"heap/astar-like"
        (Staged.stage (fun () ->
             for _ = 1 to 1_000 do
               push (Heap.pop heap)
             done));
      Test.make ~name:"line-search/city1e4-loaded"
        (Staged.stage (fun () -> ignore (line_search ())));
      Test.make ~name:"maxflow/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Maxflow.solve g ~capacities:caps ~src:0 ~dst:35)));
      Test.make ~name:"paths/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Paths.enumerate g ~src:0 ~dst:35)));
    ]

(* T7: the extension modules. The pricing rows run best-response toll
   dynamics, thousands of water-fills of tolled lines each: on the
   ℓ₁ = x, ℓ₂ = 2x duopoly and on eight random affine links. The
   links-sweep row is the benchmark's C(α) curve: 41 α on its ten
   b + c·xᵈ links. *)
let t7 () =
  let module A = Sgr_atomic.Atomic_links in
  let pigou_lats = W.pigou.Sgr_links.Links.latencies in
  let mono = Sgr_latency.Latency.monomial ~coeff:1.0 ~degree:4 in
  let duopoly =
    Links.make [| Sgr_latency.Latency.linear 1.0; Sgr_latency.Latency.linear 2.0 |] ~demand:1.0
  in
  let affine8 = W.random_affine_links (Prng.create 1008) ~m:8 () in
  let links_sweep = W.random_polynomial_links (Prng.create 1) ~m:10 ~demand:1.0 () in
  Test.make_grouped ~name:"T7 extensions"
    [
      Test.make ~name:"atomic-links/pigou-n8"
        (Staged.stage (fun () ->
             ignore (A.equilibrium (A.split_evenly pigou_lats ~total:1.0 ~players:8))));
      Test.make ~name:"tolls/fig456"
        (Staged.stage (fun () -> ignore (Stackelberg.Tolls.links_outcome W.fig456)));
      Test.make ~name:"pigou-bound/x^4"
        (Staged.stage (fun () -> ignore (Stackelberg.Bounds.pigou_bound mono)));
      Test.make ~name:"alpha-sweep/pigou-11"
        (Staged.stage (fun () ->
             ignore (Stackelberg.Alpha_sweep.run ~samples:11 ~grid_resolution:16 W.pigou)));
      Test.make ~name:"alpha-sweep/links-sweep-41"
        (Staged.stage (fun () ->
             ignore (Stackelberg.Alpha_sweep.run ~jobs:1 ~samples:41 links_sweep)));
      Test.make ~name:"pricing/duopoly"
        (Staged.stage (fun () -> ignore (Sgr_links.Pricing.best_response duopoly)));
      Test.make ~name:"pricing/affine-m8"
        (Staged.stage (fun () -> ignore (Sgr_links.Pricing.best_response affine8)));
    ]

(* T8: column generation vs exhaustive enumeration. The 5x5 grid (70
   s-t paths) is the largest the oracle still handles comfortably; the
   8x8 (3432 paths) and 10x10 (48620 paths, past the old 20,000-path
   enumeration cap that used to be a hard failure) run column-gen only.
   The induced-equilibrium entry exercises the [Network.with_demands]
   fast path that skips revalidation. *)
let t8 () =
  let grid n = W.grid_network (Prng.create (8000 + n)) ~rows:n ~cols:n () in
  let g5 = grid 5 and g8 = grid 8 and g10 = grid 10 in
  let fig7 = W.fig7 () in
  let m7 = Sgr_graph.Digraph.num_edges fig7.Sgr_network.Network.graph in
  let leader = Array.make m7 0.0 in
  let follower_demands =
    Array.map (fun c -> c.Sgr_network.Network.demand) fig7.Sgr_network.Network.commodities
  in
  Test.make_grouped ~name:"T8 column generation"
    [
      Test.make ~name:"column-gen/grid5x5"
        (Staged.stage (fun () -> ignore (Eq.solve Obj.Wardrop g5)));
      Test.make ~name:"exhaustive/grid5x5"
        (Staged.stage (fun () ->
             ignore
               (Sgr_network.Column_gen.solve_on_paths Obj.Wardrop g5
                  ~paths:(Sgr_network.Network.paths g5))));
      Test.make ~name:"column-gen/grid8x8"
        (Staged.stage (fun () -> ignore (Eq.solve Obj.Wardrop g8)));
      Test.make ~name:"column-gen/grid10x10"
        (Staged.stage (fun () -> ignore (Eq.solve Obj.Wardrop g10)));
      Test.make ~name:"mop/grid10x10"
        (Staged.stage (fun () -> ignore (Stackelberg.Mop.run g10)));
      Test.make ~name:"induced/fig7-no-revalidation"
        (Staged.stage (fun () ->
             ignore
               (Stackelberg.Induced.equilibrium fig7 ~leader_edge_flow:leader ~follower_demands)));
    ]

(* T13: the edge-flow Frank–Wolfe core (lib/assign) on synthetic
   ring+radial cities at the 10^3 / 10^4 / 10^5-edge tiers, to relative
   gap 1e-4 on one domain, and the instance reader on the 10^4 city's
   canonical text (560 KB, the text the benchmark's city-assign op
   parses before it solves). *)
let t13 () =
  let city rings radials =
    W.synthetic_city (Prng.create (13_000 + rings)) ~rings ~radials ~commodities:32 ()
  in
  let text = Sgr_io.Instance_file.to_string (Sgr_io.Instance_file.Network (city 25 100)) in
  Test.make_grouped ~name:"T13 edge-flow assignment"
    (Test.make ~name:"io/parse city1e4"
       (Staged.stage (fun () -> ignore (Sgr_io.Instance_file.parse text)))
    :: List.map
         (fun (tag, rings, radials) ->
           let net = city rings radials in
           Test.make ~name:("frank-wolfe/" ^ tag)
             (Staged.stage (fun () -> ignore (Solver.solve ~tol:1e-4 ~jobs:1 Obj.Wardrop net))))
         [ ("city1e3", 8, 32); ("city1e4", 25, 100); ("city1e5", 100, 250) ])

let run_all () =
  Format.printf "@.=== Timing suite (bechamel, monotonic clock, OLS ns/run) ===@.";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] (group ()) in
      let results = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
      List.iter
        (fun (name, est) ->
          let ns = match Analyze.OLS.estimates est with Some (t :: _) -> t | _ -> Float.nan in
          let pretty =
            if ns >= 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%8.3f µs" (ns /. 1e3)
            else Printf.sprintf "%8.1f ns" ns
          in
          Format.printf "  %-28s %s@." name pretty)
        (List.sort compare rows))
    [ t1; t2; t3; t4; t5; t6; t7; t8; t13 ]
