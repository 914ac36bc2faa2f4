(* Bechamel timing suite (T1-T6): exercises the paper's polynomial-time
   claims. One Test.make per measured configuration, all collected into a
   single run; results are printed as one OLS-estimated time per test. *)

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

(* T1: water-filling solvers vs system size. *)
let t1 =
  let make name solve =
    List.map
      (fun m ->
        let t = links_instance m in
        Test.make ~name:(Printf.sprintf "%s/m=%d" name m) (Staged.stage (fun () -> solve t)))
      [ 10; 100; 1000 ]
  in
  Test.make_grouped ~name:"T1 water-filling"
    (make "nash" (fun t -> ignore (Links.nash t)) @ make "opt" (fun t -> ignore (Links.opt t)))

(* T2: OpTop vs system size (the paper's headline polynomial algorithm). *)
let t2 =
  Test.make_grouped ~name:"T2 optop"
    (List.map
       (fun m ->
         let t = mixed_instance m in
         Test.make ~name:(Printf.sprintf "optop/m=%d" m)
           (Staged.stage (fun () -> ignore (Stackelberg.Optop.run t))))
       [ 10; 100; 500 ])

(* T3: Theorem 2.4's exact solver vs size. *)
let t3 =
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
let t4 =
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
let t5 =
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

(* T6: substrate microbenchmarks. *)
let t6 =
  let g = (W.grid_network (Prng.create 6001) ~rows:6 ~cols:6 ()).Sgr_network.Network.graph in
  let m = Sgr_graph.Digraph.num_edges g in
  let weights = Array.init m (fun i -> 0.1 +. (0.01 *. float_of_int i)) in
  let caps = Array.make m 1.0 in
  Test.make_grouped ~name:"T6 substrates"
    [
      Test.make ~name:"dijkstra/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Dijkstra.run g ~weights ~source:0)));
      Test.make ~name:"maxflow/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Maxflow.solve g ~capacities:caps ~src:0 ~dst:35)));
      Test.make ~name:"paths/grid6x6"
        (Staged.stage (fun () -> ignore (Sgr_graph.Paths.enumerate g ~src:0 ~dst:35)));
    ]

(* T7: the extension modules. *)
let t7 =
  let module A = Sgr_atomic.Atomic_links in
  let pigou_lats = W.pigou.Sgr_links.Links.latencies in
  let mono = Sgr_latency.Latency.monomial ~coeff:1.0 ~degree:4 in
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
    ]

(* T8: column generation vs exhaustive enumeration. The 5x5 grid (70
   s-t paths) is the largest the oracle still handles comfortably; the
   8x8 (3432 paths) and 10x10 (48620 paths, past the old 20,000-path
   enumeration cap that used to be a hard failure) run column-gen only.
   The induced-equilibrium entry exercises the [Network.with_demands]
   fast path that skips revalidation. *)
let t8 =
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

module Obs = Sgr_obs.Obs

(* Per-group observability record for BENCH_obs.json: wall-clock
   seconds, counter deltas, and span totals collected by a
   constant-memory aggregating sink (recording every event of a
   benchmark loop would not fit in memory). *)
type obs_entry = {
  group : string;
  wall_s : float;
  counters : (string * int) list;
  spans : (string * (int * float)) list;
}

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write_obs_json path entries =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"experiments\":[";
      List.iteri
        (fun i e ->
          if i > 0 then Printf.fprintf oc ",";
          Printf.fprintf oc "\n{\"name\":\"%s\",\"wall_s\":%.6f,\"counters\":{"
            (json_escape e.group) e.wall_s;
          List.iteri
            (fun j (name, v) ->
              Printf.fprintf oc "%s\"%s\":%d" (if j > 0 then "," else "") (json_escape name) v)
            e.counters;
          Printf.fprintf oc "},\"spans\":{";
          List.iteri
            (fun j (name, (count, total)) ->
              Printf.fprintf oc "%s\"%s\":{\"count\":%d,\"total_s\":%.6f}"
                (if j > 0 then "," else "")
                (json_escape name) count total)
            e.spans;
          Printf.fprintf oc "}}")
        entries;
      Printf.fprintf oc "\n]}\n")

let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = match List.assoc_opt name before with Some v0 -> v0 | None -> 0 in
      if v - v0 > 0 then Some (name, v - v0) else None)
    after

(* ---------------- T9: CSR kernels and the multicore sweep ----------------

   Unlike T1-T8 this group is custom-measured: the interesting outputs
   are *deltas* — the CSR Dijkstra with a fresh vs a reused workspace on
   the 10x10-grid pricing workload, and the wall clock of the same alpha
   sweep at jobs=1 vs jobs=N together with a byte-identity check — and
   those land as counters in BENCH_obs.json. *)

(* Median ns per call for each kernel, with the kernels' timed samples
   interleaved round-robin so clock drift and GC state hit all of them
   equally (Obs.now is gettimeofday — µs resolution — so each sample
   runs [batch] calls). *)
let median_ns_interleaved ~repeats ~batch kernels =
  let sample f =
    let t0 = Obs.now () in
    for _ = 1 to batch do
      f ()
    done;
    (Obs.now () -. t0) *. 1e9 /. float_of_int batch
  in
  let k = Array.length kernels in
  Array.iter (fun f -> ignore (sample f)) kernels;
  (* warm-up *)
  let samples = Array.make_matrix k repeats 0.0 in
  for r = 0 to repeats - 1 do
    Array.iteri (fun i f -> samples.(i).(r) <- sample f) kernels
  done;
  Array.map
    (fun s ->
      Array.sort compare s;
      int_of_float s.(repeats / 2))
    samples

let curve_identical (a : Stackelberg.Alpha_sweep.curve) (b : Stackelberg.Alpha_sweep.curve) =
  a.beta = b.beta
  && List.length a.points = List.length b.points
  && List.for_all2
       (fun (p : Stackelberg.Alpha_sweep.point) (q : Stackelberg.Alpha_sweep.point) ->
         p.alpha = q.alpha && p.ratio = q.ratio && p.method_used = q.method_used)
       a.points b.points

type t9_result = { entry : obs_entry; sweep_identical : bool }

let run_t9 ~grid_n ~repeats ~sweep_samples ~jobs () =
  let t0 = Obs.now () in
  (* Pricing workload: free-flow edge latencies on an n x n grid — what
     column generation's pricing Dijkstras see on their first round. *)
  let net = W.grid_network (Prng.create 9001) ~rows:grid_n ~cols:grid_n () in
  let g = net.Sgr_network.Network.graph in
  let m = Sgr_graph.Digraph.num_edges g in
  let weights = Sgr_network.Network.edge_latencies net (Array.make m 0.0) in
  let ws = Sgr_graph.Dijkstra.workspace () in
  let medians =
    median_ns_interleaved ~repeats ~batch:50
      [|
        (fun () -> ignore (Sgr_graph.Dijkstra.run g ~weights ~source:0));
        (fun () -> ignore (Sgr_graph.Dijkstra.run ~workspace:ws g ~weights ~source:0));
      |]
  in
  let csr_ns = medians.(0) and csr_ws_ns = medians.(1) in
  (* The same alpha sweep sequentially and on the pool; identity of the
     two curves is part of the result. *)
  let sweep = W.random_affine_links (Prng.create 9002) ~m:4 ~demand:1.0 () in
  let time_sweep jobs =
    let t0 = Obs.now () in
    let curve = Stackelberg.Alpha_sweep.run ~jobs ~samples:sweep_samples ~grid_resolution:12 sweep in
    (curve, Obs.now () -. t0)
  in
  let seq_curve, seq_s = time_sweep 1 in
  let par_curve, par_s = time_sweep jobs in
  let identical = curve_identical seq_curve par_curve in
  let ratio i j = if j > 0 then Printf.sprintf "%.2fx" (float_of_int i /. float_of_int j) else "-" in
  Format.printf "  %-28s %8.3f µs@."
    (Printf.sprintf "dijkstra-csr/grid%dx%d" grid_n grid_n)
    (float_of_int csr_ns /. 1e3);
  Format.printf "  %-28s %8.3f µs  (%s vs csr)@."
    (Printf.sprintf "dijkstra-csr-ws/grid%dx%d" grid_n grid_n)
    (float_of_int csr_ws_ns /. 1e3) (ratio csr_ns csr_ws_ns);
  Format.printf "  %-28s %8.3f ms@."
    (Printf.sprintf "alpha-sweep-%d/jobs=1" sweep_samples)
    (seq_s *. 1e3);
  Format.printf "  %-28s %8.3f ms  (%s, identical=%b)@."
    (Printf.sprintf "alpha-sweep-%d/jobs=%d" sweep_samples jobs)
    (par_s *. 1e3)
    (Printf.sprintf "%.2fx" (seq_s /. Float.max 1e-9 par_s))
    identical;
  let entry =
    {
      group = "T9 csr + multicore";
      wall_s = Obs.now () -. t0;
      counters =
        [
          ("t9.dijkstra_csr_ns", csr_ns);
          ("t9.dijkstra_csr_workspace_ns", csr_ws_ns);
          ("t9.sweep_samples", sweep_samples);
          ("t9.sweep_jobs", jobs);
          ("t9.sweep_seq_us", int_of_float (seq_s *. 1e6));
          ("t9.sweep_par_us", int_of_float (par_s *. 1e6));
          ("t9.sweep_identical", if identical then 1 else 0);
        ];
      spans = [];
    }
  in
  { entry; sweep_identical = identical }

(* ---------------- T10: serving cache, cold vs warm ----------------

   Batch throughput of the query engine on a grid network: a cold pass
   (every request solved and memoized) against a warm pass of the same
   requests on the same cache (every request a memo hit). The headline
   numbers are requests/sec for both passes, the memo hit ratio, and
   the cold/warm speedup — the quick gate requires warm >= 5x cold. *)

type t10_result = { entry : obs_entry; speedup : float }

let run_t10 ~grid_n ~reqs () =
  let t0 = Obs.now () in
  let net = W.grid_network (Prng.create 9003) ~rows:grid_n ~cols:grid_n () in
  let path = Filename.temp_file "sgr_bench_t10" ".inst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Sgr_io.Instance_file.print_network net));
  let kinds = [| "solve g nash"; "solve g opt"; "mop g" |] in
  let lines =
    Printf.sprintf "load g %s" path :: List.init reqs (fun i -> kinds.(i mod Array.length kinds))
  in
  let cache = Sgr_serve.Cache.create ~capacity:8 in
  let pass () =
    let t = Obs.now () in
    ignore (Sgr_serve.Engine.run_batch ~jobs:1 cache lines);
    Obs.now () -. t
  in
  let cold_s = pass () in
  let warm_s = pass () in
  let stats = Sgr_serve.Cache.stats cache in
  let hit_ratio =
    float_of_int stats.Sgr_serve.Cache.memo_hits
    /. float_of_int (Int.max 1 (stats.memo_hits + stats.memo_misses))
  in
  let rps s = float_of_int (reqs + 1) /. Float.max 1e-9 s in
  let speedup = cold_s /. Float.max 1e-9 warm_s in
  Format.printf "  %-28s %8.1f req/s  (%.3f ms total)@."
    (Printf.sprintf "batch-cold/grid%dx%d" grid_n grid_n)
    (rps cold_s) (cold_s *. 1e3);
  Format.printf "  %-28s %8.1f req/s  (%.3f ms total, %.2fx cold, hit ratio %.2f)@."
    (Printf.sprintf "batch-warm/grid%dx%d" grid_n grid_n)
    (rps warm_s) (warm_s *. 1e3) speedup hit_ratio;
  let entry =
    {
      group = "T10 serving cache";
      wall_s = Obs.now () -. t0;
      counters =
        [
          ("t10.requests", reqs + 1);
          ("t10.cold_us", int_of_float (cold_s *. 1e6));
          ("t10.warm_us", int_of_float (warm_s *. 1e6));
          ("t10.cold_rps", int_of_float (rps cold_s));
          ("t10.warm_rps", int_of_float (rps warm_s));
          ("t10.warm_speedup_x", int_of_float speedup);
          ("t10.memo_hit_ratio_pct", int_of_float (hit_ratio *. 100.0));
        ];
      spans = [];
    }
  in
  { entry; speedup }

(* ---------------- T11: serving latency under synthetic load ----------------

   The Loadgen harness replays a deterministic mixed-verb request
   stream (instance reuse 60%) through the in-process engine and
   reports the distribution-level numbers the serving tier is judged
   by: p50/p95/p99 latency from the per-verb histograms, throughput,
   and the memo hit rate. The quick gate enforces the same thresholds
   as `sgr bench serve --quick`. *)

type t11_result = { entry : obs_entry; gate_failures : string list }

let run_t11 ~requests ~instances ~reuse () =
  let t0 = Obs.now () in
  let dir = Filename.temp_dir "sgr_bench_t11" "" in
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let lines = Sgr_serve.Loadgen.generate ~dir ~seed:9011 ~instances ~requests ~reuse in
  let cache = Sgr_serve.Cache.create ~capacity:32 in
  let r = Sgr_serve.Loadgen.run (Sgr_serve.Loadgen.In_process { cache; jobs = Some 1 }) [| lines |] in
  Format.printf "  %-28s %8.1f req/s  (p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, hit rate %.2f)@."
    (Printf.sprintf "loadgen/%dreq-%dinst" requests instances)
    r.Sgr_serve.Loadgen.rps (1e3 *. r.p50_s) (1e3 *. r.p95_s) (1e3 *. r.p99_s) r.memo_hit_rate;
  let gate_failures =
    Sgr_serve.Loadgen.gate r ~p99_max_s:0.25 ~rps_min:20.0 ~hit_rate_min:0.2
  in
  let entry =
    {
      group = "T11 serving latency";
      wall_s = Obs.now () -. t0;
      counters =
        [
          ("t11.requests", r.Sgr_serve.Loadgen.requests);
          ("t11.errors", r.errors);
          ("t11.rps", int_of_float r.rps);
          ("t11.p50_us", int_of_float (1e6 *. r.p50_s));
          ("t11.p95_us", int_of_float (1e6 *. r.p95_s));
          ("t11.p99_us", int_of_float (1e6 *. r.p99_s));
          ("t11.memo_hit_ratio_pct", int_of_float (r.memo_hit_rate *. 100.0));
        ];
      spans = [];
    }
  in
  { entry; gate_failures }

(* ---------------- T12: closed-form vs bisection water-filling ----------------

   The closed-form affine engine against the bisection oracle on the
   same instances: plain random affine games at each size plus
   toll-shifted variants (marginal-cost tolls bump the intercepts and a
   leader-flow [Latency.shift] wraps every latency in a Shifted kind,
   which the engine reduces without leaving closed form). The headline
   numbers are median ns per nash+opt solve pair for [Links.nash]/[opt]
   against the [Links.water_fill] reference and the speedup, plus the
   [bisection.iterations] spent by the T1/T3-style workloads under the
   default dispatch — the quick gate requires >= 10x on the mid size and
   zero iterations. *)

type t12_result = { entry : obs_entry; min_speedup : float; auto_iters : int }

(* [bisection.iterations] burned by a miniature T1 + T3 workload under
   the default dispatch: every latency is affine, so none should run. *)
let t12_auto_iterations () =
  let before = Obs.counters () in
  List.iter
    (fun m ->
      let t = links_instance m in
      ignore (Links.nash t);
      ignore (Links.opt t))
    [ 10; 100 ];
  let t3 = W.random_common_slope_links (Prng.create 3008) ~m:8 ~demand:1.0 () in
  let alpha = 0.7 *. Float.max 0.05 (Stackelberg.Optop.beta t3) in
  ignore (Stackelberg.Linear_exact.solve t3 ~alpha);
  match List.assoc_opt "bisection.iterations" (counter_delta before (Obs.counters ())) with
  | Some v -> v
  | None -> 0

let run_t12 ~sizes ~repeats () =
  let t0 = Obs.now () in
  let counters = ref [] in
  let min_speedup = ref Float.infinity in
  let tolled_instance m =
    let tolled = Stackelberg.Tolls.tolled_links (links_instance m) in
    Links.make
      (Array.map (Sgr_latency.Latency.shift 0.125) tolled.Links.latencies)
      ~demand:tolled.Links.demand
  in
  let bench tag t =
    let batch = Int.max 4 (1000 / Links.num_links t) in
    let medians =
      median_ns_interleaved ~repeats ~batch
        [|
          (fun () ->
            ignore (Links.nash t);
            ignore (Links.opt t));
          (fun () ->
            ignore (Links.water_fill `Nash t);
            ignore (Links.water_fill `Opt t));
        |]
    in
    let cf = medians.(0) and bi = medians.(1) in
    let speedup = float_of_int bi /. float_of_int (Int.max 1 cf) in
    min_speedup := Float.min !min_speedup speedup;
    Format.printf "  %-28s %8.3f µs@."
      (tag ^ "/closed-form")
      (float_of_int cf /. 1e3);
    Format.printf "  %-28s %8.3f µs  (%.1fx closed-form)@." (tag ^ "/bisection")
      (float_of_int bi /. 1e3) speedup;
    counters :=
      (Printf.sprintf "t12.%s.bisection_ns" tag, bi)
      :: (Printf.sprintf "t12.%s.closed_form_ns" tag, cf)
      :: (Printf.sprintf "t12.%s.speedup_x10" tag, int_of_float (10.0 *. speedup))
      :: !counters
  in
  List.iter
    (fun m ->
      bench (Printf.sprintf "affine/m=%d" m) (links_instance m);
      bench (Printf.sprintf "tolled/m=%d" m) (tolled_instance m))
    sizes;
  let auto_iters = t12_auto_iterations () in
  Format.printf "  %-28s %8d  (default dispatch)@." "bisection.iterations" auto_iters;
  counters := ("t12.auto.bisection_iterations", auto_iters) :: !counters;
  let entry =
    {
      group = "T12 closed-form water-filling";
      wall_s = Obs.now () -. t0;
      counters = List.rev !counters;
      spans = [];
    }
  in
  { entry; min_speedup = !min_speedup; auto_iters }

(* ---------------- T13: city-scale edge-flow assignment ----------------

   The edge-flow Frank–Wolfe core (lib/assign) on synthetic ring+radial
   cities at the 10^3 / 10^4 / 10^5-edge tiers: convergence wall-clock,
   iteration count and final gap per tier, plus the determinism check —
   the jobs=1 and jobs=4 solves must agree bitwise. The quick gate runs
   the 10^4-edge tier and fails unless it converges to gap <= 1e-4 with
   byte-identical flows (docs/assignment.md). *)

type t13_result = { entry : obs_entry; gate_failures : string list }

let t13_flows_identical a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then ok := false)
    a;
  !ok

let run_t13 ~tiers () =
  let t0 = Obs.now () in
  let counters = ref [] in
  let failures = ref [] in
  List.iter
    (fun (tag, rings, radials) ->
      let net =
        W.synthetic_city (Prng.create (13_000 + rings)) ~rings ~radials ~commodities:32 ()
      in
      let m = Sgr_graph.Digraph.num_edges net.Sgr_network.Network.graph in
      let solve jobs = Sgr_assign.Solver.solve ~tol:1e-4 ~jobs Obj.Wardrop net in
      let t_solve = Obs.now () in
      let s1 = solve 1 in
      let wall_s = Obs.now () -. t_solve in
      let s4 = solve 4 in
      let identical =
        t13_flows_identical s1.Sgr_assign.Solver.edge_flow s4.Sgr_assign.Solver.edge_flow
      in
      Format.printf "  %-28s %8.3f ms  (%d edges, %d iters, gap %.3g, jobs 1=4: %b)@."
        (tag ^ "/frank-wolfe")
        (wall_s *. 1e3) m s1.Sgr_assign.Solver.iterations s1.Sgr_assign.Solver.relative_gap
        identical;
      if s1.Sgr_assign.Solver.relative_gap > 1e-4 then
        failures :=
          Printf.sprintf "%s: gap %.3g did not reach 1e-4" tag
            s1.Sgr_assign.Solver.relative_gap
          :: !failures;
      if not identical then
        failures := Printf.sprintf "%s: jobs=1 and jobs=4 flows differ" tag :: !failures;
      counters :=
        (Printf.sprintf "t13.%s.gap_x1e9" tag,
         int_of_float (s1.Sgr_assign.Solver.relative_gap *. 1e9))
        :: (Printf.sprintf "t13.%s.jobs_identical" tag, if identical then 1 else 0)
        :: (Printf.sprintf "t13.%s.iterations" tag, s1.Sgr_assign.Solver.iterations)
        :: (Printf.sprintf "t13.%s.wall_us" tag, int_of_float (wall_s *. 1e6))
        :: (Printf.sprintf "t13.%s.edges" tag, m)
        :: !counters)
    tiers;
  let entry =
    {
      group = "T13 edge-flow assignment";
      wall_s = Obs.now () -. t0;
      counters = List.rev !counters;
      spans = [];
    }
  in
  { entry; gate_failures = List.rev !failures }

let run_all () =
  Format.printf "@.=== Timing suite (bechamel, monotonic clock, OLS ns/run) ===@.";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let entries = ref [] in
  List.iter
    (fun (group, test) ->
      let agg = Obs.Agg.create () in
      let before = Obs.counters () in
      let t0 = Obs.now () in
      Obs.Agg.install agg;
      let raw = Benchmark.all cfg [ instance ] test in
      Obs.set_sink None;
      let wall_s = Obs.now () -. t0 in
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
        (List.sort compare rows);
      entries :=
        {
          group;
          wall_s;
          counters = counter_delta before (Obs.counters ());
          spans = Obs.Agg.span_totals agg;
        }
        :: !entries)
    [
      ("T1 water-filling", t1);
      ("T2 optop", t2);
      ("T3 linear-exact", t3);
      ("T4 network solvers", t4);
      ("T5 mop", t5);
      ("T6 substrates", t6);
      ("T7 extensions", t7);
      ("T8 column generation", t8);
    ];
  Format.printf "@.=== T9 csr + multicore (median custom timings, deltas as counters) ===@.";
  let t9 = run_t9 ~grid_n:10 ~repeats:21 ~sweep_samples:41 ~jobs:4 () in
  entries := t9.entry :: !entries;
  Format.printf "@.=== T10 serving cache (cold vs warm batch) ===@.";
  let t10 = run_t10 ~grid_n:10 ~reqs:60 () in
  entries := t10.entry :: !entries;
  Format.printf "@.=== T11 serving latency (synthetic load) ===@.";
  let t11 = run_t11 ~requests:2000 ~instances:12 ~reuse:0.6 () in
  entries := t11.entry :: !entries;
  Format.printf "@.=== T12 closed-form water-filling (vs bisection oracle) ===@.";
  let t12 = run_t12 ~sizes:[ 10; 100; 1000 ] ~repeats:9 () in
  entries := t12.entry :: !entries;
  Format.printf "@.=== T13 edge-flow assignment (synthetic cities) ===@.";
  let t13 =
    run_t13 ~tiers:[ ("city/1e3", 8, 32); ("city/1e4", 25, 100); ("city/1e5", 100, 250) ] ()
  in
  List.iter (fun m -> Format.printf "WARN: T13 %s@." m) t13.gate_failures;
  entries := t13.entry :: !entries;
  write_obs_json "BENCH_obs.json" (List.rev !entries);
  Format.printf "@.wrote BENCH_obs.json (per-experiment span totals + counter snapshots)@."

(* CI smoke: a scaled-down T9 at jobs=1 (trivially identical) and
   jobs=2, plus scaled-down T10, T11, T12 and the T13 10^4-edge tier.
   Returns false — a nonzero exit for the workflow — when the pooled
   sweep is not byte-identical to the sequential one, the warm serving
   cache is not at least 5x faster than the cold pass, the T11
   latency/throughput/hit-rate gate fails, the closed-form engine loses
   its T12 speedup or affine links reach bisection, or the T13 city
   assignment misses gap <= 1e-4 / jobs-identity. *)
let run_quick () =
  Format.printf "@.=== T9 quick smoke (jobs=1 and jobs=2) ===@.";
  let r1 = run_t9 ~grid_n:6 ~repeats:5 ~sweep_samples:9 ~jobs:1 () in
  let r2 = run_t9 ~grid_n:6 ~repeats:5 ~sweep_samples:9 ~jobs:2 () in
  Format.printf "@.=== T10 quick smoke (serving cache cold vs warm) ===@.";
  let r10 = run_t10 ~grid_n:6 ~reqs:30 () in
  Format.printf "@.=== T11 quick smoke (serving latency gate) ===@.";
  let r11 = run_t11 ~requests:300 ~instances:6 ~reuse:0.6 () in
  Format.printf "@.=== T12 quick smoke (closed-form vs bisection) ===@.";
  let r12 = run_t12 ~sizes:[ 100 ] ~repeats:5 () in
  Format.printf "@.=== T13 quick smoke (10^4-edge city assignment gate) ===@.";
  let r13 = run_t13 ~tiers:[ ("city/1e4", 25, 100) ] () in
  let sweep_ok = r1.sweep_identical && r2.sweep_identical in
  let cache_ok = r10.speedup >= 5.0 in
  let latency_ok = r11.gate_failures = [] in
  let closed_form_ok = r12.min_speedup >= 10.0 in
  let iters_ok = r12.auto_iters = 0 in
  if not sweep_ok then
    Format.printf "FAIL: pooled alpha sweep diverged from the sequential curve@.";
  if not cache_ok then
    Format.printf "FAIL: warm serving-cache pass only %.2fx faster than cold (need 5x)@."
      r10.speedup;
  List.iter (fun m -> Format.printf "FAIL: T11 %s@." m) r11.gate_failures;
  if not closed_form_ok then
    Format.printf "FAIL: closed-form engine only %.2fx faster than bisection (need 10x)@."
      r12.min_speedup;
  if not iters_ok then
    Format.printf "FAIL: default dispatch burned %d bisection iterations on affine links (need 0)@."
      r12.auto_iters;
  let assign_ok = r13.gate_failures = [] in
  List.iter (fun m -> Format.printf "FAIL: T13 %s@." m) r13.gate_failures;
  sweep_ok && cache_ok && latency_ok && closed_form_ok && iters_ok && assign_ok
