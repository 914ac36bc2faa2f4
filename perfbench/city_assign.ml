(* city-assign: parse the 10^4-edge synthetic city, then Frank-Wolfe to
   a 1e-4 relative gap, in-process. The only workload where the assign
   layer, its all-or-nothing step and Dijkstra do nearly all the work. *)

module IF = Sgr_io.Instance_file
module Net = Sgr_network.Network
module Solver = Sgr_assign.Solver
module Aon = Sgr_assign.Aon
module Dijkstra = Sgr_graph.Dijkstra
open Workload

type session = { text : string; net : Net.t; reference : float array }

let name = "city-assign"

(* 51 ops in a 30 s run leave fewer than 10 samples above any level;
   p90 is the lowest level the ladder offers. *)
let tail = Stats.P90
let ops_per_s = 1.7
let warmup = 1
let setup_reps = 5
let trace_ops = 3
let tol = 1e-4

let parse text =
  match IF.parse text with
  | Ok (IF.Network net) -> net
  | Ok (IF.Links _) -> invalid_arg "city-assign: not a network instance"
  | Error m -> invalid_arg ("city-assign: " ^ m)

let solve net = Solver.solve ~tol ~jobs:1 Sgr_network.Objective.Wardrop net

let setup ~seed =
  let text = Inputs.city_text ~seed in
  let net = parse text in
  { text; net; reference = (solve net).Solver.edge_flow }

let run s ~first ~n =
  timed_loop ~first ~n
    ~work:(fun _ ->
      let net = Spans.span "io.parse" (fun () -> parse s.text) in
      Spans.span "assign.solve" (fun () -> solve net))
    ~check:(fun _ (sol : Solver.solution) ->
      sol.relative_gap <= tol && same_bits sol.edge_flow s.reference)

let final_check _ = (0, 0)
let peak_rss_mb _ = Host.peak_rss_mb "self"
let close _ = ()

let layers s ~traced_p50_ms:_ =
  let sol, alloc = alloc_mb (fun () -> solve s.net) in
  let solve_ms = median_span "assign.solve" in
  let m = Sgr_graph.Digraph.num_edges s.net.Net.graph in
  let weights = Net.edge_latencies s.net (Array.make m 0.0) in
  let into = Array.make m 0.0 in
  let plan = Aon.plan s.net in
  let aon jobs () = Aon.assign ~jobs plan s.net ~weights ~into in
  let aon_ms = probe "assign.aon" ~reps:7 (aon 1) in
  let ws = Dijkstra.workspace () in
  let source = s.net.Net.commodities.(0).Net.src in
  let tree_ms =
    probe "graph.dijkstra" ~reps:51 (fun () ->
        ignore (Dijkstra.run ~workspace:ws s.net.Net.graph ~weights ~source))
  in
  let metrics =
    Report.
      [
        metric "io.parse_ms" "ms" (median_span "io.parse");
        metric "assign.solve_ms" "ms" solve_ms;
        metric "assign.iterations" "count" (float_of_int sol.Solver.iterations);
        metric "assign.aon_ms" "ms" aon_ms;
        metric "assign.aon_share" "ratio" (float_of_int (sol.iterations + 1) *. aon_ms /. solve_ms);
        metric "assign.trees_per_aon" "count" (float_of_int (Aon.num_trees plan));
        metric "graph.dijkstra_tree_us" "us" (1e3 *. tree_ms);
        metric "assign.alloc_mb_per_op" "MB" alloc;
      ]
  in
  let par () =
    let aon2_ms = probe "assign.aon.jobs2" ~reps:7 (aon 2) in
    [ Report.metric "par.aon_speedup" "ratio" (aon_ms /. aon2_ms) ]
  in
  (metrics, par)
