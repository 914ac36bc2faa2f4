(* sgr — command-line interface to the Stackelberg price-of-optimum
   library.

   Instances are plain-text files (see Sgr_io.Instance_file for the
   format); `sgr catalog NAME` materializes the named instances from the
   paper so they can be piped into files and edited. *)

open Cmdliner
module Links = Sgr_links.Links
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module W = Sgr_workloads.Workloads
module IF = Sgr_io.Instance_file
module Vec = Sgr_numerics.Vec
module Obs = Sgr_obs.Obs
module Export = Sgr_obs.Export

(* When a machine-readable output is active (--csv, --trace) human
   diagnostics move to stderr so stdout stays pipeable. *)
let machine_mode = ref false

let diag fmt = if !machine_mode then Format.eprintf fmt else Format.printf fmt

(* Run [f] under the observability flags: reset counters, record events
   while [f] runs, then export the trace file (Chrome trace format, or
   JSONL when FILE ends in .jsonl) and/or print the stats summary to
   stderr. With neither flag this is just [f ()]: no sink is installed
   and solver results are bit-identical. *)
let with_obs ?(machine = false) ~trace ~stats f =
  machine_mode := machine || trace <> None || stats;
  if trace = None && not stats then f ()
  else begin
    Obs.reset_counters ();
    let r = Obs.Recorder.create () in
    Obs.Recorder.install r;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_sink None;
        let events = Obs.Recorder.events r in
        (match trace with
        | Some path -> (
            try
              Out_channel.with_open_text path (fun oc ->
                  if Filename.check_suffix path ".jsonl" then Export.jsonl oc events
                  else Export.chrome_trace oc ~counters:(Obs.counters ()) events);
              Format.eprintf "trace: wrote %s@." path
            with Sys_error m ->
              Format.eprintf "error: cannot write trace: %s@." m;
              exit 2)
        | None -> ());
        if stats then Export.stats Format.err_formatter ~counters:(Obs.counters ()) events)
      f
  end

let load_instance path =
  match IF.load path with
  | Ok t -> t
  | Error m ->
      Format.eprintf "error: %s@." m;
      exit 2

let require_links = function
  | IF.Links t -> t
  | IF.Network _ ->
      Format.eprintf "error: this command needs a parallel-links instance@.";
      exit 2

let require_network = function
  | IF.Network n -> n
  | IF.Links _ ->
      Format.eprintf "error: this command needs a network instance@.";
      exit 2

(* ---------------- arguments ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.")

let alpha_arg =
  Arg.(
    required
    & opt (some float) None
    & info [ "alpha"; "a" ] ~docv:"ALPHA" ~doc:"Leader's share of the flow, in [0, 1].")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record counters, spans and solver-convergence traces, and write them to $(docv) \
           (Chrome chrome://tracing JSON, or JSONL when $(docv) ends in .jsonl).")

let stats_arg =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:"Print the observability summary (counters, span totals) to stderr on exit.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~env:(Cmd.Env.info "SGR_JOBS")
        ~doc:
          "Number of worker domains for parallel stages (alpha-sweep points, per-commodity \
           pricing). Defaults to 1 (sequential). Results are byte-identical at any job count.")

let fixed_clock_arg =
  Arg.(
    value
    & flag
    & info [ "fixed-clock" ]
        ~doc:
          "Replace the wall clock with a deterministic tick (every reading advances 1ms), making \
           latency output — notably the $(b,metrics) histogram section — reproducible. Meant for \
           golden tests at $(b,--jobs 1); at higher job counts worker domains race on the tick.")

let obs_term =
  Term.(
    const (fun trace stats jobs fixed_clock ->
        Option.iter Sgr_par.Pool.set_default_jobs jobs;
        if fixed_clock then begin
          let ticks = ref 0.0 in
          Obs.set_clock (fun () ->
              ticks := !ticks +. 0.001;
              !ticks)
        end;
        (trace, stats))
    $ trace_arg $ stats_arg $ jobs_arg $ fixed_clock_arg)

(* ---------------- solve ---------------- *)

let solve_links t =
  let nash = Links.nash t and opt = Links.opt t in
  diag "instance: %d parallel links, r = %g@." (Links.num_links t) t.Links.demand;
  Format.printf "nash     = %a  (common latency %.6g)@." Vec.pp nash.assignment nash.level;
  Format.printf "optimum  = %a  (marginal level %.6g)@." Vec.pp opt.assignment opt.level;
  Format.printf "C(N) = %.6g, C(O) = %.6g, price of anarchy = %.6g@."
    (Links.cost t nash.assignment) (Links.cost t opt.assignment) (Links.price_of_anarchy t)

let solve_network net =
  let nash = Eq.solve Obj.Wardrop net in
  let opt = Eq.solve Obj.System_optimum net in
  let cn = Net.cost net nash.edge_flow and co = Net.cost net opt.edge_flow in
  diag "instance: %d nodes, %d edges, %d commodities, r = %g@."
    (Sgr_graph.Digraph.num_nodes net.Net.graph)
    (Sgr_graph.Digraph.num_edges net.Net.graph)
    (Array.length net.Net.commodities) (Net.total_demand net);
  (* Free-flow shortest distances: a cheap sanity baseline for the
     equilibrium latencies below. *)
  let m = Sgr_graph.Digraph.num_edges net.Net.graph in
  let free_weights = Net.edge_latencies net (Array.make m 0.0) in
  Array.iteri
    (fun i (c : Net.commodity) ->
      let d = Sgr_graph.Dijkstra.run net.Net.graph ~weights:free_weights ~source:c.Net.src in
      diag "commodity %d: free-flow shortest distance %.6g@." i d.Sgr_graph.Dijkstra.dist.(c.Net.dst))
    net.Net.commodities;
  Format.printf "nash edge flow    = %a@." Vec.pp nash.edge_flow;
  Format.printf "optimum edge flow = %a@." Vec.pp opt.edge_flow;
  Format.printf "C(N) = %.6g, C(O) = %.6g, price of anarchy = %.6g@." cn co (cn /. co)

let solve_cmd =
  let run path (trace, stats) =
    with_obs ~trace ~stats (fun () ->
        match load_instance path with
        | IF.Links t -> solve_links t
        | IF.Network n -> solve_network n)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute the Nash equilibrium, the optimum and the price of anarchy.")
    Term.(const run $ file_arg $ obs_term)

(* ---------------- assign ---------------- *)

let assign_cmd =
  let run path obj method_ tol max_iter paths_k (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let net = require_network (load_instance path) in
    let o = match obj with `Nash -> Obj.Wardrop | `Opt -> Obj.System_optimum in
    diag "instance: %d nodes, %d edges, %d commodities, r = %g@."
      (Sgr_graph.Digraph.num_nodes net.Net.graph)
      (Sgr_graph.Digraph.num_edges net.Net.graph)
      (Array.length net.Net.commodities) (Net.total_demand net);
    let sol, flows =
      (* Per-commodity flow tracking costs k extra arrays; only pay for
         it when a path decomposition was asked for. Either way the
         aggregate solution is byte-identical. *)
      if paths_k > 0 then
        let sol, flows = Sgr_assign.Solver.solve_flows ~tol ~max_iter ~method_ o net in
        (sol, Some flows)
      else (Sgr_assign.Solver.solve ~tol ~max_iter ~method_ o net, None)
    in
    Format.printf "method     = %s@." (Sgr_assign.Solver.method_name method_);
    Format.printf "objective  = %s@." (match obj with `Nash -> "nash" | `Opt -> "opt");
    Format.printf "iterations = %d@." sol.Sgr_assign.Solver.iterations;
    Format.printf "gap        = %.9g@." sol.relative_gap;
    Format.printf "value      = %.9g@." sol.objective;
    Format.printf "cost       = %.9g@." (Net.cost net sol.edge_flow);
    if paths_k > 0 then begin
      (* Paths exist only on demand: decompose the edge flow and show
         the largest path flows. *)
      let d = Sgr_assign.Decompose.run ?flows net ~edge_flow:sol.edge_flow in
      let flows =
        List.stable_sort
          (fun (a : Sgr_assign.Decompose.path_flow) b -> Float.compare b.amount a.amount)
          d.Sgr_assign.Decompose.path_flows
      in
      Format.printf "paths      = %d  (max residual %.3g)@." (List.length flows)
        (Sgr_assign.Decompose.max_residual d);
      List.iteri
        (fun i (pf : Sgr_assign.Decompose.path_flow) ->
          if i < paths_k then
            Format.printf "  k%d  %.6g  %a@." pf.commodity pf.amount
              (Sgr_graph.Paths.pp net.Net.graph) pf.path)
        flows
    end
  in
  let obj =
    Arg.(
      value
      & opt (enum [ ("nash", `Nash); ("opt", `Opt) ]) `Nash
      & info [ "objective"; "o" ] ~docv:"OBJ"
          ~doc:"$(b,nash) (Wardrop equilibrium, default) or $(b,opt) (system optimum).")
  in
  let method_ =
    Arg.(
      value
      & opt
          (enum
             [ ("fw", Sgr_assign.Solver.Frank_wolfe); ("msa", Sgr_assign.Solver.Msa) ])
          Sgr_assign.Solver.Frank_wolfe
      & info [ "method" ] ~docv:"M"
          ~doc:
            "$(b,fw) (Frank–Wolfe with exact line search, default) or $(b,msa) (method of \
             successive averages).")
  in
  let tol =
    Arg.(
      value
      & opt float 1e-4
      & info [ "tol" ] ~docv:"EPS" ~doc:"Relative-gap convergence threshold (default 1e-4).")
  in
  let max_iter =
    Arg.(
      value
      & opt int 10_000
      & info [ "max-iter" ] ~docv:"N" ~doc:"Iteration budget (default 10000).")
  in
  let paths_k =
    Arg.(
      value
      & opt int 0
      & info [ "paths" ] ~docv:"K"
          ~doc:
            "Decompose the edge flow into path flows (Dijkstra-tree peeling) and print the \
             $(docv) largest.")
  in
  Cmd.v
    (Cmd.info "assign"
       ~doc:
         "City-scale traffic assignment over per-edge flows (no path enumeration): Frank–Wolfe \
          or MSA to the Wardrop equilibrium or the system optimum, deterministic at any \
          $(b,--jobs).")
    Term.(const run $ file_arg $ obj $ method_ $ tol $ max_iter $ paths_k $ obs_term)

(* ---------------- tntp ---------------- *)

let tntp_cmd =
  let run net_path trips_path (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let slurp p =
      match In_channel.with_open_text p In_channel.input_all with
      | s -> s
      | exception Sys_error m ->
          Format.eprintf "error: %s@." m;
          exit 2
    in
    match Sgr_workloads.Tntp.parse ~net:(slurp net_path) ~trips:(slurp trips_path) with
    | Ok net -> print_string (IF.print_network net)
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 2
  in
  let net_file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"NET" ~doc:"TNTP link table (_net.tntp).")
  in
  let trips_file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"TRIPS" ~doc:"TNTP origin–destination matrix (_trips.tntp).")
  in
  Cmd.v
    (Cmd.info "tntp"
       ~doc:
         "Import a TNTP-style instance (link table + trips matrix) and print it in the native \
          instance-file format, ready for $(b,sgr assign) or the serving layer.")
    Term.(const run $ net_file $ trips_file $ obs_term)

(* ---------------- optop ---------------- *)

let optop_cmd =
  let run path rounds (trace, stats) =
    with_obs ~trace ~stats (fun () ->
        let t = require_links (load_instance path) in
        let r = Stackelberg.Optop.run t in
        if rounds then
          List.iteri
            (fun i (round : Stackelberg.Optop.round) ->
              diag "round %d: r = %.6g, frozen = {%s}@." (i + 1) round.demand
                (String.concat ","
                   (Array.to_list (Array.map (fun j -> string_of_int (j + 1)) round.frozen))))
            r.rounds;
        Format.printf "beta      = %.9g@." r.beta;
        Format.printf "strategy  = %a@." Vec.pp r.strategy;
        Format.printf "C(N)      = %.9g@." r.nash_cost;
        Format.printf "C(O)      = %.9g@." r.optimum_cost;
        Format.printf "C(S+T)    = %.9g@." r.induced_cost)
  in
  let rounds = Arg.(value & flag & info [ "rounds" ] ~doc:"Print OpTop's per-round trace.") in
  Cmd.v
    (Cmd.info "optop"
       ~doc:
         "Compute the price of optimum β and the Leader's optimal strategy on parallel links \
          (Corollary 2.2).")
    Term.(const run $ file_arg $ rounds $ obs_term)

(* ---------------- mop ---------------- *)

let mop_cmd =
  let run path dot_out (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let net = require_network (load_instance path) in
    let r = Stackelberg.Mop.run net in
    Format.printf "beta (strong) = %.9g@." r.beta;
    Format.printf "beta (weak)   = %.9g@." r.beta_weak;
    Format.printf "C(N)          = %.9g@." r.nash_cost;
    Format.printf "C(O)          = %.9g@." r.opt_cost;
    Format.printf "C(S+T)        = %.9g@." r.induced.cost;
    Array.iter
      (fun (rep : Stackelberg.Mop.commodity_report) ->
        Format.printf "commodity %d: free flow %.6g, controlled %.6g, %d leader paths@."
          rep.index rep.free_flow rep.controlled
          (List.length rep.leader_paths))
      r.per_commodity;
    match dot_out with
    | None -> ()
    | Some path ->
        let dot =
          Sgr_graph.Dot.export ~name:"mop"
            ~edge_label:(fun e ->
              Printf.sprintf "o=%.3f s=%.3f" r.opt_edge_flow.(e.Sgr_graph.Digraph.id)
                r.leader_edge_flow.(e.Sgr_graph.Digraph.id))
            ~edge_highlight:(fun e -> r.leader_edge_flow.(e.Sgr_graph.Digraph.id) > 1e-9)
            net.Net.graph
        in
        Out_channel.with_open_text path (fun oc -> output_string oc dot);
        diag "wrote %s@." path
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"OUT.dot"
          ~doc:"Export the network in Graphviz format with the Leader's edges highlighted.")
  in
  Cmd.v
    (Cmd.info "mop"
       ~doc:"Compute the price of optimum and the optimal strategy on a network (Theorem 2.1).")
    Term.(const run $ file_arg $ dot $ obs_term)

(* ---------------- heuristics ---------------- *)

let heuristic_cmd name doc links_play net_play =
  let run path alpha (trace, stats) =
    if not (0.0 <= alpha && alpha <= 1.0) then begin
      Format.eprintf "error: alpha must be in [0, 1]@.";
      exit 2
    end;
    with_obs ~trace ~stats @@ fun () ->
    match load_instance path with
    | IF.Links t ->
        let o : Stackelberg.Strategies.outcome = links_play t ~alpha in
        Format.printf "strategy  = %a@." Vec.pp o.strategy;
        Format.printf "C(S+T)    = %.9g@." o.induced_cost;
        Format.printf "ratio     = %.9g@." o.ratio_to_opt
    | IF.Network n ->
        let o : Stackelberg.Net_strategies.outcome = net_play n ~alpha in
        Format.printf "leader edge flow = %a@." Vec.pp o.leader_edge_flow;
        Format.printf "C(S+T)    = %.9g@." o.induced.cost;
        Format.printf "ratio     = %.9g@." o.ratio_to_opt
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ file_arg $ alpha_arg $ obs_term)

let llf_cmd =
  heuristic_cmd "llf"
    "Play the Largest-Latency-First heuristic with budget ALPHA·r and report the induced cost."
    (fun t ~alpha -> Stackelberg.Strategies.llf t ~optimum:(Links.opt t).assignment ~alpha)
    (fun n ~alpha -> Stackelberg.Net_strategies.llf n ~alpha)

let scale_cmd =
  heuristic_cmd "scale" "Play SCALE (ALPHA times the optimum) and report the induced cost."
    (fun t ~alpha -> Stackelberg.Strategies.scale t ~optimum:(Links.opt t).assignment ~alpha)
    (fun n ~alpha -> Stackelberg.Net_strategies.scale n ~alpha)

(* ---------------- thm24 ---------------- *)

let thm24_cmd =
  let run path alpha (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let t = require_links (load_instance path) in
    if not (Stackelberg.Linear_exact.is_common_slope t) then begin
      Format.eprintf "error: Theorem 2.4 needs common-slope linear latencies@.";
      exit 2
    end;
    let r = Stackelberg.Linear_exact.solve t ~alpha in
    Format.printf "strategy   = %a@." Vec.pp r.strategy;
    Format.printf "C(S+T)     = %.9g@." r.induced_cost;
    Format.printf "partition  = prefix of %d links, epsilon = %.9g@." r.best.i0 r.best.epsilon
  in
  Cmd.v
    (Cmd.info "thm24"
       ~doc:
         "Compute the exact optimal strategy on a hard instance (ALPHA < β) with common-slope \
          linear latencies (Theorem 2.4).")
    Term.(const run $ file_arg $ alpha_arg $ obs_term)

(* ---------------- sweep ---------------- *)

(* A sweep or a profile takes 2 to [Alpha_sweep.max_samples] points, as
   a served [sweep ID LO HI N] does: any other count is refused by its
   option's name before the instance is read or a point is allocated. *)
let check_samples samples =
  let most = Stackelberg.Alpha_sweep.max_samples in
  if samples < 2 || samples > most then begin
    Format.eprintf "error: --samples must be in [2, %d], got %d@." most samples;
    exit 2
  end

let sweep_cmd =
  let run path samples csv (trace, stats) =
    check_samples samples;
    with_obs ~machine:csv ~trace ~stats @@ fun () ->
    let t = require_links (load_instance path) in
    let curve = Stackelberg.Alpha_sweep.run ~samples t in
    if csv then begin
      Format.printf "alpha,ratio,method@.";
      List.iter
        (fun (p : Stackelberg.Alpha_sweep.point) ->
          let m =
            match p.method_used with
            | Stackelberg.Alpha_sweep.Exact_threshold -> "threshold"
            | Linear_exact -> "thm2.4"
            | Grid_search -> "grid"
            | Heuristic_upper_bound -> "heuristic"
          in
          Format.printf "%.6f,%.9f,%s@." p.alpha p.ratio m)
        curve.points
    end
    else begin
      Format.printf "beta = %.6f@." curve.beta;
      List.iter
        (fun (p : Stackelberg.Alpha_sweep.point) ->
          Format.printf "alpha %.3f -> ratio %.6f@." p.alpha p.ratio)
        curve.points
    end
  in
  let samples =
    Arg.(value & opt int 21 & info [ "samples" ] ~docv:"N" ~doc:"Number of α samples.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Trace the a-posteriori anarchy cost (M,r,α) as a function of α (Expression (2)).")
    Term.(const run $ file_arg $ samples $ csv_arg $ obs_term)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run path samples r_lo r_hi csv (trace, stats) =
    check_samples samples;
    with_obs ~machine:csv ~trace ~stats @@ fun () ->
    let t = require_links (load_instance path) in
    let points = Stackelberg.Beta_profile.run ~samples t ~r_lo ~r_hi in
    if csv then begin
      Format.printf "demand,beta,poa@.";
      List.iter
        (fun (p : Stackelberg.Beta_profile.point) ->
          Format.printf "%.6f,%.9f,%.9f@." p.demand p.beta p.poa)
        points
    end
    else
      List.iter
        (fun (p : Stackelberg.Beta_profile.point) ->
          Format.printf "r = %-8.4f β = %-10.6f PoA = %.6f@." p.demand p.beta p.poa)
        points
  in
  let samples =
    Arg.(value & opt int 21 & info [ "samples" ] ~docv:"N" ~doc:"Number of demand samples.")
  in
  let r_lo = Arg.(value & opt float 0.1 & info [ "from" ] ~docv:"R" ~doc:"Lowest demand.") in
  let r_hi = Arg.(value & opt float 3.0 & info [ "to" ] ~docv:"R" ~doc:"Highest demand.") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Trace the price of optimum β_M and the price of anarchy as the total demand varies.")
    Term.(const run $ file_arg $ samples $ r_lo $ r_hi $ csv_arg $ obs_term)

(* ---------------- info ---------------- *)

let info_cmd =
  let run path (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    match load_instance path with
    | IF.Links t ->
        Format.printf "kind: parallel links@.";
        Format.printf "links: %d, demand: %g@." (Links.num_links t) t.Links.demand;
        Array.iteri
          (fun i lat ->
            Format.printf "  M%d: %s%s@." (i + 1)
              (Sgr_latency.Latency.to_string lat)
              (if Sgr_latency.Latency.is_constant lat then "  (constant)" else ""))
          t.Links.latencies;
        Format.printf "common-slope linear (Thm 2.4 class): %b@."
          (Stackelberg.Linear_exact.is_common_slope t)
    | IF.Network net ->
        let g = net.Net.graph in
        Format.printf "kind: network@.";
        Format.printf "nodes: %d, edges: %d, commodities: %d, total demand: %g@."
          (Sgr_graph.Digraph.num_nodes g) (Sgr_graph.Digraph.num_edges g)
          (Array.length net.Net.commodities) (Net.total_demand net);
        Format.printf "acyclic: %b@." (Sgr_graph.Topology.is_dag g);
        Array.iteri
          (fun i c ->
            (* Saturating count (no path lists are materialized), so the
               report stays exact far past the enumeration cap and never
               overflows on city-scale grids. *)
            match Sgr_graph.Paths.count g ~src:c.Net.src ~dst:c.Net.dst with
            | `Exact n ->
                Format.printf "commodity %d: %d -> %d, demand %g, %d simple paths@." i c.Net.src
                  c.Net.dst c.Net.demand n
            | `At_least n ->
                Format.printf
                  "commodity %d: %d -> %d, demand %g, >= %d simple paths (count capped)@." i
                  c.Net.src c.Net.dst c.Net.demand n)
          net.Net.commodities
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe an instance file: sizes, latencies, structure.")
    Term.(const run $ file_arg $ obs_term)

(* ---------------- tolls ---------------- *)

let tolls_cmd =
  let run path (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    match load_instance path with
    | IF.Links t ->
        let tolls = Stackelberg.Tolls.links_tolls t in
        let eq, cost = Stackelberg.Tolls.links_outcome t in
        Format.printf "tolls           = %a@." Vec.pp tolls;
        Format.printf "tolled flow     = %a@." Vec.pp eq;
        Format.printf "latency cost    = %.9g@." cost;
        Format.printf "optimum C(O)    = %.9g@." (Links.cost t (Links.opt t).assignment)
    | IF.Network net ->
        let tolls = Stackelberg.Tolls.network_tolls net in
        let flow, cost = Stackelberg.Tolls.network_outcome net in
        let opt = Eq.solve Obj.System_optimum net in
        Format.printf "tolls           = %a@." Vec.pp tolls;
        Format.printf "tolled flow     = %a@." Vec.pp flow;
        Format.printf "latency cost    = %.9g@." cost;
        Format.printf "optimum C(O)    = %.9g@." (Net.cost net opt.edge_flow)
  in
  Cmd.v
    (Cmd.info "tolls"
       ~doc:
         "Compute marginal-cost (Pigouvian) tolls and the tolled equilibrium — the first-best \
          pricing benchmark the paper's introduction contrasts with Stackelberg control.")
    Term.(const run $ file_arg $ obs_term)

(* ---------------- pricing ---------------- *)

let pricing_cmd =
  let rounds_arg =
    Arg.(
      value
      & opt int 64
      & info [ "rounds" ] ~docv:"N" ~doc:"Best-response round budget (default 64).")
  in
  let run path rounds (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let t = require_links (load_instance path) in
    let r = Sgr_links.Pricing.best_response ~max_rounds:rounds t in
    Format.printf "%a@." Sgr_links.Pricing.pp r;
    Format.printf "optimum C(O)    = %.9g@." (Links.cost t (Links.opt t).assignment);
    Format.printf "price of pricing = %.6g@." (Sgr_links.Pricing.price_of_pricing t r)
  in
  Cmd.v
    (Cmd.info "pricing"
       ~doc:
         "Best-response toll pricing on parallel affine links: each link's profit-maximizing \
          owner sets a toll, users route selfishly under latency + toll, and the dynamics run \
          to a pricing equilibrium (Goldberg-Polpinit) — every payoff probe is one water-fill \
          of the tolled lines.")
    Term.(const run $ file_arg $ rounds_arg $ obs_term)

(* ---------------- bound ---------------- *)

let bound_cmd =
  let run path (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let lats, poa =
      match load_instance path with
      | IF.Links t -> (t.Links.latencies, Links.price_of_anarchy t)
      | IF.Network net ->
          let nash = Eq.solve Obj.Wardrop net in
          let opt = Eq.solve Obj.System_optimum net in
          (net.Net.latencies, Net.cost net nash.edge_flow /. Net.cost net opt.edge_flow)
    in
    let worst = ref 1.0 in
    Array.iteri
      (fun i lat ->
        let b = Stackelberg.Bounds.pigou_bound lat in
        worst := Float.max !worst b;
        Format.printf "latency %d: %-24s pigou bound %.6f@." i
          (Sgr_latency.Latency.to_string lat) b)
      lats;
    Format.printf "worst pigou bound (topology-free PoA bound) = %.6f@." !worst;
    Format.printf "measured price of anarchy                   = %.6f@." poa
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:
         "Compute each latency's Pigou bound (Roughgarden's anarchy value) and compare the \
          topology-independent PoA bound with the instance's measured price of anarchy.")
    Term.(const run $ file_arg $ obs_term)

(* ---------------- catalog ---------------- *)

let catalog =
  [
    ("pigou", fun () -> IF.Links W.pigou);
    ("fig456", fun () -> IF.Links W.fig456);
    ("fig7", fun () -> IF.Network (W.fig7 ()));
    ("braess", fun () -> IF.Network (W.braess_classic ()));
    ("two-commodity", fun () -> IF.Network (W.two_commodity ()));
    ("pigou-degree-4", fun () -> IF.Links (W.pigou_degree 4));
  ]

let catalog_cmd =
  let run name (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    match name with
    | None ->
        Format.printf "available instances:@.";
        List.iter (fun (n, _) -> Format.printf "  %s@." n) catalog
    | Some n -> (
        match List.assoc_opt n catalog with
        | None ->
            Format.eprintf "error: unknown instance %S (try `sgr catalog`)@." n;
            exit 2
        | Some make -> (
            match make () with
            | IF.Links t -> print_string (IF.print_links t)
            | IF.Network net -> print_string (IF.print_network net)))
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Catalog instance name.")
  in
  Cmd.v
    (Cmd.info "catalog"
       ~doc:"List the paper's named instances, or print one in instance-file format.")
    Term.(const run $ name_arg $ obs_term)

(* ---------------- random ---------------- *)

let random_cmd =
  let run kind seed m (trace, stats) =
    with_obs ~trace ~stats @@ fun () ->
    let rng = Sgr_numerics.Prng.create seed in
    match kind with
    | "links" -> print_string (IF.print_links (W.random_affine_links rng ~m ()))
    | "common-slope" -> print_string (IF.print_links (W.random_common_slope_links rng ~m ()))
    | "poly" -> print_string (IF.print_links (W.random_polynomial_links rng ~m ()))
    | "mm1" -> print_string (IF.print_links (W.random_mm1_links rng ~m ()))
    | "grid" -> print_string (IF.print_network (W.grid_network rng ~rows:m ~cols:m ()))
    | "layered" ->
        print_string (IF.print_network (W.random_layered_network rng ~layers:m ~width:m ()))
    | "city" ->
        (* rings = m, radials = 4m: 16·m² edges, so --size 25 is the
           10^4-edge benchmark tier and --size 79 is ~10^5. *)
        print_string (IF.print_network (W.synthetic_city rng ~rings:m ~radials:(4 * m) ()))
    | k ->
        Format.eprintf
          "error: unknown kind %S (links|common-slope|poly|mm1|grid|layered|city)@." k;
        exit 2
  in
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND" ~doc:"links | common-slope | poly | mm1 | grid | layered | city")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let size = Arg.(value & opt int 5 & info [ "size"; "m" ] ~docv:"M" ~doc:"Instance size.") in
  Cmd.v
    (Cmd.info "random" ~doc:"Generate a random instance and print it in instance-file format.")
    Term.(const run $ kind $ seed $ size $ obs_term)

(* ---------------- batch / serve ---------------- *)

let cache_arg =
  Arg.(
    value
    & opt int 32
    & info [ "cache" ] ~docv:"N"
        ~doc:
          "Capacity of the instance LRU cache (parsed instances plus their memoized solutions). \
           Least-recently-used instances are evicted and transparently reloaded from their bound \
           file path on next use.")

let batch_cmd =
  let run path connect cache_cap (trace, stats) =
    with_obs ~machine:true ~trace ~stats @@ fun () ->
    let lines =
      if path = "-" then In_channel.input_lines In_channel.stdin
      else
        match In_channel.with_open_text path In_channel.input_lines with
        | lines -> lines
        | exception Sys_error m ->
            Format.eprintf "error: %s@." m;
            exit 2
    in
    match connect with
    | Some socket -> (
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let c =
          try Sgr_serve.Client.connect socket
          with Unix.Unix_error (e, _, _) ->
            Format.eprintf "error: cannot connect to %s: %s@." socket (Unix.error_message e);
            exit 2
        in
        Fun.protect ~finally:(fun () -> Sgr_serve.Client.close c) @@ fun () ->
        (* Mirror the in-process semantics: nothing after [quit] runs. *)
        let live = ref true in
        try
          List.iter
            (fun raw ->
              if !live then
                match Sgr_serve.Client.rpc c raw with
                | None -> ()
                | Some reply ->
                    print_endline reply;
                    if String.equal reply "ok bye" then live := false)
            lines
        with Sgr_serve.Client.Disconnected | Unix.Unix_error _ ->
          Format.eprintf "error: server closed the connection@.";
          exit 2)
    | None ->
        let cache = Sgr_serve.Cache.create ~capacity:cache_cap in
        List.iter print_endline (Sgr_serve.Engine.run_batch cache lines)
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Request file, one request per line ($(b,-) for stdin); see docs/serving.md for the \
             grammar.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:
            "Send the requests to a running $(b,sgr serve) over this Unix-domain socket instead \
             of solving in-process.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Execute a request file against the query engine and print one reply line per request. \
          Output is byte-identical at any $(b,--jobs); the latency-histogram section of \
          $(b,metrics) replies is the documented exception (counts and gauges stay exact).")
    Term.(const run $ file $ connect $ cache_arg $ obs_term)

let serve_cmd =
  let run socket cache_cap (trace, stats) =
    with_obs ~machine:true ~trace ~stats @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let cache = Sgr_serve.Cache.create ~capacity:cache_cap in
    let log msg = Format.eprintf "sgr serve: %s@." msg in
    let server = Sgr_serve.Server.create ~socket_path:socket ~cache ~log in
    let stop _ = Sgr_serve.Server.request_stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    match Sgr_serve.Server.run server with
    | () -> ()
    | exception Sgr_serve.Server.Busy path ->
        Format.eprintf "error: a server is already answering on %s (stop it first)@." path;
        exit 2
    | exception Unix.Unix_error (e, fn, _) ->
        Format.eprintf "error: %s: %s@." fn (Unix.error_message e);
        exit 2
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on (created at startup, removed on shutdown).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived query engine on a Unix-domain socket (concurrent pipelined sessions \
          over one select loop; SIGINT drains gracefully; refuses to steal a socket another \
          server answers on).")
    Term.(const run $ socket $ cache_arg $ obs_term)

(* ---------------- main ---------------- *)

(* A solve that cannot answer its input (M/M/1 links that cannot carry
   the demand, a bad option value) raises [Invalid_argument] or
   [Failure]: report it as one [error:] line and exit 2, as the serve
   engine replies [error solve], rather than as an internal error. *)
let () =
  let doc = "Stackelberg routing: the price of optimum (Kaporis & Spirakis, SPAA'06)" in
  let info = Cmd.info "sgr" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        solve_cmd; assign_cmd; tntp_cmd; optop_cmd; mop_cmd; llf_cmd; scale_cmd; thm24_cmd;
        sweep_cmd; profile_cmd;
        bound_cmd; tolls_cmd; pricing_cmd; info_cmd; catalog_cmd; random_cmd; batch_cmd;
        serve_cmd;
      ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception (Invalid_argument m | Failure m) ->
        Format.eprintf "error: %s@." m;
        2
    | exception e ->
        Format.eprintf "sgr: internal error, uncaught exception:@\n%s@." (Printexc.to_string e);
        Cmd.Exit.internal_error)
