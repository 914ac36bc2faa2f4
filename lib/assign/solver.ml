module G = Sgr_graph
module L = Sgr_latency.Latency
module Network = Sgr_network.Network
module Objective = Sgr_network.Objective
module Obs = Sgr_obs.Obs

type method_ = Frank_wolfe | Msa

let method_name = function Frank_wolfe -> "frank-wolfe" | Msa -> "msa"

type trace_point = { k : int; gap : float; objective : float; step : float }

type solution = {
  edge_flow : float array;
  iterations : int;
  relative_gap : float;
  objective : float;
  trace : trace_point list;
}

let c_iters = Obs.counter "assign.iterations"
let c_line_search = Obs.counter "assign.line_searches"

let criterion ~marginal = if marginal then "marginal cost" else "latency"

(* [Aon.assign] at the gradient. The network gives every commodity a
   path, so a sink the trees do not reach is cut off by edges whose
   weight is not finite: the flow has loaded them to where their
   criterion is infinite (an M/M/1 edge at or past its capacity). *)
let aon ?jobs ?record plan (net : Network.t) ~marginal ~weights ~into =
  try Aon.assign ?jobs ?record plan net ~weights ~into
  with Invalid_argument _ as exn -> (
    let backtrace = Printexc.get_raw_backtrace () in
    match Aon.unreached plan with
    | Some i when not (Array.for_all Float.is_finite weights) ->
        let c = net.Network.commodities.(i) in
        invalid_arg
          (Printf.sprintf
             "Solver.solve: no path of finite %s at the current flow for commodity %d from \
              node %d to node %d"
             (criterion ~marginal) i c.Network.src c.Network.dst)
    | _ -> Printexc.raise_with_backtrace exn backtrace)

let solve_gen ?(tol = 1e-4) ?(max_iter = 10_000) ?(method_ = Frank_wolfe) ?jobs ~flows obj net
    =
  Obs.span "assign.solve" @@ fun () ->
  let m = G.Digraph.num_edges net.Network.graph in
  (* The gradient and every line-search probe evaluate through the
     latency kernels, which box no float. *)
  let lats = net.Network.latencies in
  let marginal = match obj with Objective.Wardrop -> false | Objective.System_optimum -> true in
  let ks = net.Network.commodities in
  let plan = Aon.plan net in
  let grad = Array.make m 0.0 in
  let y = Array.make m 0.0 in
  (* The direction's support: edge ids (ascending) and their components
     of d = y - f, and the same gathered with their base flows and
     latency coefficients for the line search. Before the first scan
     [sup_edge] lists every edge. *)
  let sup_edge = Array.init m Fun.id and sup_dir = Array.make m 0.0 in
  let line = L.Kernels.line lats in
  (* Per-commodity flow tracking (only when the caller wants a
     decomposable answer): every AON routes each commodity down one tree
     path, so the commodity split evolves by the same convex steps as
     the aggregate — x_i <- (1-γ)·x_i + γ·d_i·path_i. Recording never
     touches the aggregate iterates, so [solve] and [solve_flows]
     produce byte-identical [edge_flow]. *)
  let paths = Array.map (fun _ -> []) ks in
  let record =
    match flows with
    | None -> None
    | Some _ -> Some (fun ~commodity ~path -> paths.(commodity) <- path)
  in
  let update_flows gamma =
    match flows with
    | None -> ()
    | Some xs ->
        let scale = 1.0 -. gamma in
        Array.iteri
          (fun i x ->
            for e = 0 to m - 1 do
              x.(e) <- x.(e) *. scale
            done;
            let d = gamma *. ks.(i).Network.demand in
            List.iter (fun e -> x.(e) <- x.(e) +. d) paths.(i))
          xs
  in
  let f = Array.make m 0.0 in
  (* The gradient at f on the first [len] edges of [sup_edge]. Dijkstra
     rejects negative weights; marginals of odd user latencies can dip
     microscopically below zero, so clamp.

     The clamp, the gap scan and the step below read and write
     unchecked: [grad], [y], [f], [sup_edge] and [sup_dir] all hold m
     entries, the scan runs over [0, m), and the first [len] (or
     [n_sup]) entries of [sup_edge], counts at most m, are edge ids. *)
  let refresh len =
    L.Kernels.fill_entries lats ~marginal ~at:f ~entries:sup_edge ~len ~into:grad;
    for k = 0 to len - 1 do
      let e = Array.unsafe_get sup_edge k in
      Array.unsafe_set grad e (Float.max 0.0 (Array.unsafe_get grad e))
    done
  [@@lint.allow "unchecked-access"]
  in
  refresh m;
  (* An edge whose criterion is infinite (or nan) at zero flow can never
     be priced: the gap scan would multiply it by a zero direction. *)
  for e = 0 to m - 1 do
    if not (Float.is_finite grad.(e)) then
      invalid_arg
        (Printf.sprintf "Solver.solve: the %s of edge %d is not finite at zero flow"
           (criterion ~marginal) e)
  done;
  aon ?jobs ?record plan net ~marginal ~weights:grad ~into:f;
  update_flows 1.0;
  (* How many leading entries of [sup_edge] the last step moved f on:
     all m after the first AON. *)
  let moved = ref m in
  let iterations = ref 0 in
  let relgap = ref Float.infinity in
  let continue = ref true in
  let tracing = Obs.enabled () in
  let trace = ref [] in
  let cancel = Sgr_obs.Cancel.handle () in
  while !continue && !iterations < max_iter do
    Sgr_obs.Cancel.check_handle cancel;
    incr iterations;
    Obs.incr c_iters;
    (* A step changes f on its support alone, so only there can the
       gradient, or its clamp, change: refresh those edges, before the
       scan below overwrites [sup_edge]. *)
    refresh !moved;
    aon ?jobs ?record plan net ~marginal ~weights:grad ~into:y;
    (* One scan: the relative duality gap of the linearized subproblem
       and the support of the direction d = y - f. *)
    let gap = ref 0.0 and denom = ref 0.0 and n_sup = ref 0 in
    (for e = 0 to m - 1 do
       let fe = Array.unsafe_get f e and ge = Array.unsafe_get grad e in
       let de = Array.unsafe_get y e -. fe in
       gap := !gap -. (ge *. de);
       denom := !denom +. (ge *. fe);
       (* Exact test by design: exact zeros mark edges outside the
          direction's support; a tolerance would silently drop genuinely
          tiny components. *)
       if (de <> 0.0) [@lint.allow "float-equality"] then begin
         Array.unsafe_set sup_edge !n_sup e;
         Array.unsafe_set sup_dir !n_sup de;
         incr n_sup
       end
     done)
    [@lint.allow "unchecked-access"];
    let n_sup = !n_sup in
    relgap := !gap /. Float.max 1e-12 (Float.abs !denom);
    let obj_now = if tracing then Objective.objective obj net f else 0.0 in
    let step =
      if !relgap <= tol then begin
        continue := false;
        0.0
      end
      else begin
        let gamma =
          match method_ with
          | Msa -> 1.0 /. float_of_int (!iterations + 1)
          | Frank_wolfe ->
              Obs.incr c_line_search;
              (* A probe's sign is all the bisection reads: the line's
                 affine model decides it where its rounding bound allows,
                 and elsewhere the probe sums the gathered support, in
                 the same edge order as a full scan, so the sum is the
                 same float. Either way the bisection takes the same
                 branches. *)
              L.Kernels.gather line ~marginal ~base:f ~entries:sup_edge ~dirs:sup_dir ~len:n_sup;
              (* Exact line search: the directional derivative of the
                 convex objective along d is nondecreasing in gamma. *)
              let dphi gamma =
                Sgr_obs.Cancel.check_handle cancel;
                L.Kernels.slope_sign line gamma
              in
              let gamma = Sgr_numerics.Minimize.line_search_convex ~df:dphi ~lo:0.0 ~hi:1.0 () in
              if gamma <= 0.0 then 1e-12 else gamma
        in
        (* Off the support d is +0, so f + gamma·d would be f there: f
           holds no -0 (AON adds demands to +0, a sum that cancels
           rounds to +0, and the clip writes +0). *)
        (for k = 0 to n_sup - 1 do
           let e = Array.unsafe_get sup_edge k in
           let fe = Array.unsafe_get f e +. (gamma *. Array.unsafe_get sup_dir k) in
           (* Clip negative rounding noise. *)
           Array.unsafe_set f e (if fe < 0.0 then 0.0 else fe)
         done)
        [@lint.allow "unchecked-access"];
        moved := n_sup;
        update_flows gamma;
        gamma
      end
    in
    if tracing then begin
      let solver = "assign." ^ method_name method_ in
      Obs.point ~solver ~k:!iterations ~gap:!relgap ~objective:obj_now ~step;
      trace := { k = !iterations; gap = !relgap; objective = obj_now; step } :: !trace
    end
  done;
  {
    edge_flow = f;
    iterations = !iterations;
    relative_gap = !relgap;
    objective = Objective.objective obj net f;
    trace = List.rev !trace;
  }

let solve ?tol ?max_iter ?method_ ?jobs obj net =
  solve_gen ?tol ?max_iter ?method_ ?jobs ~flows:None obj net

let solve_flows ?tol ?max_iter ?method_ ?jobs obj net =
  let m = G.Digraph.num_edges net.Network.graph in
  let xs = Array.map (fun _ -> Array.make m 0.0) net.Network.commodities in
  let sol = solve_gen ?tol ?max_iter ?method_ ?jobs ~flows:(Some xs) obj net in
  (sol, xs)
