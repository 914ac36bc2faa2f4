(* Metrics and the one-line JSON result. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* The five end-to-end metrics every workload reports. *)
let end_to_end =
  [
    ("throughput_ops_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* The per-layer metrics the traced run prints, in print order. *)
let sweep_methods = [ "threshold"; "thm2.4"; "grid"; "heuristic" ]
let workload_names = [ "city-assign"; "serve-hit"; "serve-induced"; "links-sweep" ]

let per_layer =
  [
    ("io.parse_ms", "ms");
    ("assign.solve_ms", "ms");
    ("assign.iterations", "count");
    ("assign.aon_ms", "ms");
    ("assign.aon_share", "ratio");
    ("assign.trees_per_aon", "count");
    ("graph.dijkstra_tree_us", "us");
    ("assign.alloc_mb_per_op", "MB");
    ("par.aon_speedup", "ratio");
    ("serve.parse_us", "us");
    ("serve.execute_us", "us");
    ("serve.session_us", "us");
    ("serve.transport_us", "us");
    ("serve.alloc_kb_per_req", "KB");
    ("serve.memo_hit_ratio", "ratio");
    ("network.optimum_ms", "ms");
    ("core.llf_ms", "ms");
    ("core.induced_ms", "ms");
    ("network.pricing_rounds", "count");
    ("network.columns", "count");
    ("core.llf_alloc_mb_per_op", "MB");
    ("serve.execute_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.memo_miss_ratio", "ratio");
    ("core.optop_ms", "ms");
    ("links.nash_us", "us");
    ("links.opt_us", "us");
    ("links.bisection_iterations", "count");
    ("links.closed_form_calls", "count");
  ]
  @ List.map (fun m -> ("core.sweep_points." ^ m, "count")) sweep_methods
  @ List.map (fun m -> ("core.sweep_point_ms." ^ m, "ms")) sweep_methods
  @ [ ("core.sweep_alloc_mb_per_op", "MB"); ("par.sweep_speedup", "ratio") ]
  @ List.map (fun w -> ("trace.p50_ratio." ^ w, "ratio")) workload_names

(* Every value with all its digits; a non-finite value is a bug in the
   benchmark and fails the run. *)
let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.number: non-finite metric value"

(* [metrics] must name exactly the [expected] metrics, in any order;
   they are printed in [expected]'s order. *)
let result_line ~expected ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> String.equal m.name name) metrics with
        | Some m when String.equal m.unit_ unit_ ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number m.value) unit_
        | _ -> invalid_arg ("Report.result_line: metric missing or mis-unitized: " ^ name))
      expected
  in
  if List.length metrics <> List.length expected then
    invalid_arg "Report.result_line: unexpected extra metric";
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
