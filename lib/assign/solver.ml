module G = Sgr_graph
module Network = Sgr_network.Network
module Objective = Sgr_network.Objective
module Obs = Sgr_obs.Obs

type method_ = Frank_wolfe | Msa

let method_name = function Frank_wolfe -> "frank-wolfe" | Msa -> "msa"

type solution = Sgr_network.Solver_types.solution = {
  edge_flow : float array;
  iterations : int;
  relative_gap : float;
  objective : float;
  trace : Sgr_network.Solver_types.trace_point list;
}

let c_iters = Obs.counter "assign.iterations"
let c_line_search = Obs.counter "assign.line_searches"

let solve_gen ?(tol = 1e-4) ?(max_iter = 10_000) ?(method_ = Frank_wolfe) ?jobs ~flows obj net
    =
  Obs.span "assign.solve" @@ fun () ->
  let m = G.Digraph.num_edges net.Network.graph in
  let value = Objective.edge_value obj in
  let lats = net.Network.latencies in
  let ks = net.Network.commodities in
  let plan = Aon.plan net in
  let grad = Array.make m 0.0 in
  let y = Array.make m 0.0 in
  (* The direction's support for the line search: edge ids (ascending)
     and their components of d = y - f. *)
  let sup_edge = Array.make m 0 and sup_dir = Array.make m 0.0 in
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
  (* Dijkstra rejects negative weights; marginals of odd user latencies
     can dip microscopically below zero, so clamp. *)
  let fill_grad f =
    for e = 0 to m - 1 do
      grad.(e) <- Float.max 0.0 (value lats.(e) f.(e))
    done
  in
  let f = Array.make m 0.0 in
  fill_grad f;
  Aon.assign ?jobs ?record plan net ~weights:grad ~into:f;
  update_flows 1.0;
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
    fill_grad f;
    Aon.assign ?jobs ?record plan net ~weights:grad ~into:y;
    (* Relative duality gap of the linearized subproblem: the direction
       is d = y - f, kept implicit — both dot products stream over the
       two flow arrays. *)
    let gap = ref 0.0 and denom = ref 0.0 in
    for e = 0 to m - 1 do
      gap := !gap -. (grad.(e) *. (y.(e) -. f.(e)));
      denom := !denom +. (grad.(e) *. f.(e))
    done;
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
              (* Collect the support of d once; every probe below then
                 sums over it alone, in the same edge order as a full
                 scan, so the sum is the same float. *)
              let n_sup = ref 0 in
              for e = 0 to m - 1 do
                let de = y.(e) -. f.(e) in
                (* Exact test by design: exact zeros mark edges outside
                   the direction's support; a tolerance would silently
                   drop genuinely tiny components. *)
                if (de <> 0.0) [@lint.allow "float-equality"] then begin
                  sup_edge.(!n_sup) <- e;
                  sup_dir.(!n_sup) <- de;
                  incr n_sup
                end
              done;
              let n_sup = !n_sup in
              (* Exact line search: the directional derivative of the
                 convex objective along d is nondecreasing in gamma. *)
              let dphi gamma =
                Sgr_obs.Cancel.check_handle cancel;
                let acc = ref 0.0 in
                for k = 0 to n_sup - 1 do
                  let e = sup_edge.(k) and de = sup_dir.(k) in
                  acc := !acc +. (de *. value lats.(e) (f.(e) +. (gamma *. de)))
                done;
                !acc
              in
              let gamma = Sgr_numerics.Minimize.line_search_convex ~df:dphi ~lo:0.0 ~hi:1.0 () in
              if gamma <= 0.0 then 1e-12 else gamma
        in
        for e = 0 to m - 1 do
          f.(e) <- f.(e) +. (gamma *. (y.(e) -. f.(e)));
          (* Clip negative rounding noise. *)
          if f.(e) < 0.0 then f.(e) <- 0.0
        done;
        update_flows gamma;
        gamma
      end
    in
    if tracing then begin
      let solver = "assign." ^ method_name method_ in
      Obs.point ~solver ~k:!iterations ~gap:!relgap ~objective:obj_now ~step;
      trace := { Sgr_network.Solver_types.k = !iterations; gap = !relgap; objective = obj_now; step } :: !trace
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
