(* Column-generation equilibrium solver, and the path-equalization inner
   loop it shares with the exhaustive oracle [solve_on_paths].

   The active path set per commodity starts as one shortest path and
   grows only when pricing (a Dijkstra on the current edge values) finds
   a strictly cheaper column, so the solver never enumerates the
   exponential path set of a grid-like network. *)

module G = Sgr_graph
module Obs = Sgr_obs.Obs

let c_sweeps = Obs.counter "equilibrate.sweeps"
let c_rounds = Obs.counter "column_gen.pricing_rounds"
let c_columns = Obs.counter "column_gen.columns"

(* One Dijkstra workspace per domain: the pricing step may fan its
   per-commodity shortest-path calls over a pool, and each domain reuses
   its own scratch arrays across rounds. *)
let ws_key = Domain.DLS.new_key (fun () -> G.Dijkstra.workspace ())

type solution = {
  edge_flow : float array;
  path_flows : float array array;
  paths : G.Paths.t array array;
  sweeps : int;
  gap : float;
}

(* Edges appearing in [a] but not in [b] (as id lists; paths are simple
   so each id appears at most once). Membership is a binary search over
   [b] sorted once — [a]'s order is preserved, so downstream folds see
   the edges in exactly the order the naive quadratic filter produced. *)
let diff_edges a b =
  match b with
  | [] -> a
  | _ ->
      let in_b = Array.of_list (List.sort_uniq Int.compare b) in
      let mem e =
        let lo = ref 0 and hi = ref (Array.length in_b - 1) in
        let found = ref false in
        (* why: binary search — the lo/hi window halves every pass, so
           the loop runs at most log2 |b| times. *)
        (while (not !found) && !lo <= !hi do
           let mid = (!lo + !hi) / 2 in
           if in_b.(mid) = e then found := true
           else if in_b.(mid) < e then lo := mid + 1
           else hi := mid - 1
         done)
        [@lint.allow "cancel-coverage"];
        !found
      in
      List.filter (fun e -> not (mem e)) a

let path_value value net edge_flow path =
  List.fold_left (fun acc e -> acc +. value net.Network.latencies.(e) edge_flow.(e)) 0.0 path

let commodity_gap obj net ~edge_flow ~paths ~flows =
  let value = Objective.edge_value obj in
  let costs = Array.map (path_value value net edge_flow) paths in
  let min_cost = Sgr_numerics.Vec.min_elt costs in
  let worst = ref min_cost in
  Array.iteri (fun j f -> if f > 1e-12 then worst := Float.max !worst costs.(j)) flows;
  !worst -. min_cost

let used_eps = 1e-12

(* One pairwise equalization for one commodity: move flow from the
   costliest used path to the cheapest path, equalizing the pair by
   bisection on the shifted amount (only the symmetric difference of the
   two paths matters). Returns the commodity's gap before the shift. *)
let equalize_once value net ~edge_flow ~ps ~flows =
  let costs = Array.map (path_value value net edge_flow) ps in
  let lo = Sgr_numerics.Vec.argmin costs in
  let hi = ref (-1) in
  Array.iteri
    (fun j f -> if f > used_eps && (!hi < 0 || costs.(j) > costs.(!hi)) then hi := j)
    flows;
  if !hi < 0 then 0.0
  else begin
    let gap = costs.(!hi) -. costs.(lo) in
    if gap > 0.0 && !hi <> lo then begin
      let hi_only = diff_edges ps.(!hi) ps.(lo) in
      let lo_only = diff_edges ps.(lo) ps.(!hi) in
      (* Cost difference (hi minus lo, restricted to the symmetric
         difference) after moving delta; decreasing in delta. *)
      let d delta =
        let a =
          List.fold_left
            (fun acc e -> acc +. value net.Network.latencies.(e) (edge_flow.(e) -. delta))
            0.0 hi_only
        in
        let b =
          List.fold_left
            (fun acc e -> acc +. value net.Network.latencies.(e) (edge_flow.(e) +. delta))
            0.0 lo_only
        in
        a -. b
      in
      let cap = flows.(!hi) in
      let delta =
        if d cap >= 0.0 then cap
        else Sgr_numerics.Bisection.root ~f:(fun x -> -.d x) ~lo:0.0 ~hi:cap ()
      in
      if delta > 0.0 then begin
        flows.(!hi) <- flows.(!hi) -. delta;
        flows.(lo) <- flows.(lo) +. delta;
        List.iter (fun e -> edge_flow.(e) <- edge_flow.(e) -. delta) hi_only;
        List.iter (fun e -> edge_flow.(e) <- edge_flow.(e) +. delta) lo_only
      end
    end;
    gap
  end

(* Gauss–Seidel sweeps over every commodity until the active-set gap
   falls below [tol] or the sweep budget runs out. Mutates [edge_flow]
   and [path_flows]; returns the number of sweeps performed. Trace
   points continue the caller's numbering from [k0]. *)
let equalize ?(k0 = 0) obj net ~edge_flow ~paths ~path_flows ~tol ~max_sweeps =
  let value = Objective.edge_value obj in
  let k = Array.length net.Network.commodities in
  let sweeps = ref 0 in
  let gap = ref Float.infinity in
  let tracing = Obs.enabled () in
  let cancel = Sgr_obs.Cancel.handle () in
  while !gap > tol && !sweeps < max_sweeps do
    Sgr_obs.Cancel.check_handle cancel;
    incr sweeps;
    Obs.incr c_sweeps;
    let worst = ref 0.0 in
    for i = 0 to k - 1 do
      let g = equalize_once value net ~edge_flow ~ps:paths.(i) ~flows:path_flows.(i) in
      worst := Float.max !worst g
    done;
    gap := !worst;
    if tracing then
      Obs.point ~solver:"equilibrate" ~k:(k0 + !sweeps) ~gap:!gap
        ~objective:(Objective.objective obj net edge_flow)
        ~step:0.0
  done;
  !sweeps

(* Equalize on a fixed, caller-provided path set — the exhaustive oracle
   when [paths] is the full enumeration. Behaviour (initialization
   order, sweep counts, bisections) matches the historical
   [Equilibrate.solve] exactly. *)
let solve_on_paths ?(tol = 1e-9) ?(max_sweeps = 200_000) obj net ~paths =
  let value = Objective.edge_value obj in
  let m = G.Digraph.num_edges net.Network.graph in
  let edge_flow = Array.make m 0.0 in
  (* Initialize: each commodity's demand on its cheapest path under the
     flow accumulated by the commodities before it. *)
  let path_flows =
    Array.mapi
      (fun i c ->
        let ps = paths.(i) in
        if Array.length ps = 0 then
          invalid_arg "Column_gen.solve_on_paths: commodity without paths";
        let costs = Array.map (path_value value net edge_flow) ps in
        let j = Sgr_numerics.Vec.argmin costs in
        let flows = Array.make (Array.length ps) 0.0 in
        flows.(j) <- c.Network.demand;
        List.iter (fun e -> edge_flow.(e) <- edge_flow.(e) +. c.Network.demand) ps.(j);
        flows)
      net.Network.commodities
  in
  let sweeps = equalize obj net ~edge_flow ~paths ~path_flows ~tol ~max_sweeps in
  (* Report the true residual gap at the final flow. *)
  let final_gap =
    let worst = ref 0.0 in
    Array.iteri
      (fun i flows ->
        worst := Float.max !worst (commodity_gap obj net ~edge_flow ~paths:paths.(i) ~flows))
      path_flows;
    !worst
  in
  { edge_flow; path_flows; paths; sweeps; gap = final_gap }

let solve ?(tol = 1e-9) ?(max_sweeps = 200_000) ?(max_rounds = 1_000) obj net =
  Obs.span "column_gen.solve" @@ fun () ->
  let value = Objective.edge_value obj in
  let g = net.Network.graph in
  let m = G.Digraph.num_edges g in
  let k = Array.length net.Network.commodities in
  let edge_flow = Array.make m 0.0 in
  (* Edge values as Dijkstra weights; marginals of odd user-supplied
     latencies can dip microscopically below zero, which Dijkstra
     rejects, so clamp. *)
  let weights () =
    Array.init m (fun e -> Float.max 0.0 (value net.Network.latencies.(e) edge_flow.(e)))
  in
  (* Seed: one shortest-path column per commodity, loading commodities
     one after another so later seeds avoid already-congested edges. *)
  let active = Array.make k [||] in
  let flows = Array.make k [||] in
  Array.iteri
    (fun i (c : Network.commodity) ->
      (* One Dijkstra per commodity; check between them so seeding a
         large instance cannot outlive the request deadline. *)
      Sgr_obs.Cancel.check ();
      match
        G.Dijkstra.shortest_path ~workspace:(Domain.DLS.get ws_key) g ~weights:(weights ())
          ~src:c.Network.src ~dst:c.Network.dst
      with
      | None -> invalid_arg "Column_gen.solve: unreachable commodity"
      | Some p ->
          active.(i) <- [| p |];
          flows.(i) <- [| c.Network.demand |];
          Obs.incr c_columns;
          List.iter (fun e -> edge_flow.(e) <- edge_flow.(e) +. c.Network.demand) p)
    net.Network.commodities;
  let sweeps = ref 0 in
  let rounds = ref 0 in
  let final_gap = ref Float.infinity in
  let tracing = Obs.enabled () in
  let converged = ref false in
  while (not !converged) && !rounds < max_rounds && !sweeps < max_sweeps do
    (* Deadline checkpoint per pricing round; the per-sweep checkpoint
       inside [equalize] covers the long Gauss–Seidel stretches. *)
    Sgr_obs.Cancel.check ();
    incr rounds;
    Obs.incr c_rounds;
    (* Equalize the active columns, then price: a Dijkstra per commodity
       on the current edge values; admit the shortest path as a new
       column when it beats the cheapest active column by more than
       [tol] (relative at scale). *)
    sweeps :=
      !sweeps
      + equalize ~k0:!sweeps obj net ~edge_flow ~paths:active ~path_flows:flows ~tol
          ~max_sweeps:(max_sweeps - !sweeps);
    let w = weights () in
    (* Pricing Dijkstras are independent across commodities, so they may
       run on the ambient pool; each returns a fresh path (no workspace
       aliasing). Admission below stays sequential in commodity order,
       so the solve is byte-identical at any job count. *)
    let priced =
      Sgr_par.Pool.map
        (fun (c : Network.commodity) ->
          (* Per-item checkpoint: free on a disarmed worker domain, and
             on the sequential in-batch fallback it keeps the pricing
             sweep pre-emptible between Dijkstras. *)
          Sgr_obs.Cancel.check ();
          G.Dijkstra.shortest_path ~workspace:(Domain.DLS.get ws_key) g ~weights:w
            ~src:c.Network.src ~dst:c.Network.dst)
        net.Network.commodities
    in
    let admitted = ref 0 in
    let round_gap = ref 0.0 in
    Array.iteri
      (fun i (_ : Network.commodity) ->
        match priced.(i) with
        | None -> ()
        | Some p ->
            let new_cost = G.Paths.cost p w in
            let costs = Array.map (fun q -> G.Paths.cost q w) active.(i) in
            let active_min = Sgr_numerics.Vec.min_elt costs in
            (* True Wardrop gap of this commodity: costliest used column
               against the network-wide shortest path. *)
            let worst_used = ref new_cost in
            Array.iteri
              (fun j f -> if f > used_eps then worst_used := Float.max !worst_used costs.(j))
              flows.(i);
            round_gap := Float.max !round_gap (!worst_used -. new_cost);
            if new_cost < active_min -. (tol *. Float.max 1.0 active_min) then begin
              (* Strictly cheaper than every active column, so it cannot
                 already be in the active set. *)
              active.(i) <- Array.append active.(i) [| p |];
              flows.(i) <- Array.append flows.(i) [| 0.0 |];
              incr admitted;
              Obs.incr c_columns
            end)
      net.Network.commodities;
    final_gap := !round_gap;
    if tracing then
      Obs.point ~solver:"column_gen" ~k:!rounds ~gap:!round_gap
        ~objective:(Objective.objective obj net edge_flow)
        ~step:(float_of_int !admitted);
    if !admitted = 0 then converged := true
  done;
  { edge_flow; path_flows = flows; paths = active; sweeps = !sweeps; gap = !final_gap }
