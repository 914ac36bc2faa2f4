(* Tests for the extension modules: weak/strong β in MOP, network
   heuristics (SCALE/LLF), the α-sweep curve, the MSA solver, and the
   worst-case instance families. *)

open Helpers
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Solver = Sgr_assign.Solver
module Obj = Sgr_network.Objective
module Links = Sgr_links.Links
module Mop = Stackelberg.Mop
module NS = Stackelberg.Net_strategies
module Sweep = Stackelberg.Alpha_sweep
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance

(* ---- weak vs strong Stackelberg β ---- *)

let test_beta_weak_single_commodity () =
  (* With one commodity the notions coincide. *)
  let r = Mop.run (W.fig7 ()) in
  approx "weak = strong" r.beta r.beta_weak

let test_beta_weak_two_commodity () =
  let r = Mop.run (W.two_commodity ()) in
  check_true "weak >= strong" (r.beta_weak >= r.beta -. 1e-9)

let test_beta_weak_asymmetric () =
  (* Commodity 1 is a Pigou pair (β = 1/2), commodity 2 a single edge
     (β = 0): strong β averages, weak β takes the max. *)
  let g = Sgr_graph.Digraph.of_edges ~num_nodes:4 [ (0, 1); (0, 1); (2, 3) ] in
  let latencies =
    [| Sgr_latency.Latency.linear 1.0; Sgr_latency.Latency.constant 1.0;
       Sgr_latency.Latency.linear 1.0 |]
  in
  let net =
    Net.make g ~latencies
      ~commodities:[| { Net.src = 0; dst = 1; demand = 1.0 }; { Net.src = 2; dst = 3; demand = 1.0 } |]
  in
  let r = Mop.run net in
  approx "strong β = 1/4" 0.25 r.beta;
  approx "weak β = 1/2" 0.5 r.beta_weak

(* ---- network heuristics ---- *)

let test_net_aloof_is_nash () =
  let net = W.braess_classic () in
  let o = NS.aloof net in
  approx ~eps:1e-5 "aloof cost = C(N) = 2" 2.0 o.induced.cost;
  approx ~eps:1e-5 "ratio = PoA" (4.0 /. 3.0) o.ratio_to_opt

let test_net_scale_full_control () =
  let net = W.fig7 () in
  let o = NS.scale net ~alpha:1.0 in
  approx ~eps:1e-4 "α = 1 yields the optimum" 1.0 o.ratio_to_opt

let test_net_llf_full_control () =
  let net = W.fig7 () in
  let o = NS.llf net ~alpha:1.0 in
  approx ~eps:1e-4 "α = 1 yields the optimum" 1.0 o.ratio_to_opt

let test_net_llf_at_beta_fig7 () =
  (* On Fig. 7 the non-shortest (leader) paths are exactly the two slowest
     optimal paths, so LLF with α = β covers them and induces O. *)
  let net = W.fig7 () in
  let beta = Mop.beta net in
  let o = NS.llf net ~alpha:beta in
  approx ~eps:1e-3 "LLF at β reaches the optimum" 1.0 o.ratio_to_opt

let test_net_alpha_validation () =
  match NS.scale (W.fig7 ()) ~alpha:2.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha > 1 rejected"

let prop_net_heuristics_sane =
  qcheck ~count:15 "network heuristics: ratio >= 1, never below optimum" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 1) in
      let net =
        W.random_layered_network rng ~layers:(1 + Prng.int rng 2) ~width:(1 + Prng.int rng 2) ()
      in
      List.for_all
        (fun alpha ->
          (NS.scale net ~alpha).ratio_to_opt >= 1.0 -. 1e-6
          && (NS.llf net ~alpha).ratio_to_opt >= 1.0 -. 1e-6)
        [ 0.3; 0.7 ])

(* ---- α sweep ---- *)

let test_sweep_pigou_matches_closed_form () =
  let curve = Sweep.run ~samples:11 W.pigou in
  approx "beta" 0.5 curve.beta;
  List.iter
    (fun (p : Sweep.point) ->
      approx ~eps:2e-3
        (Printf.sprintf "ratio at α=%.2f" p.alpha)
        (Sweep.pigou_closed_form p.alpha) p.ratio)
    curve.points

let test_sweep_monotone () =
  let curve = Sweep.run ~samples:11 W.fig456 in
  let rec chk = function
    | (a : Sweep.point) :: (b :: _ as rest) ->
        approx_le "ratios nonincreasing" b.ratio (a.ratio +. 1e-6);
        chk rest
    | _ -> ()
  in
  chk curve.points

let test_sweep_hits_one_at_beta () =
  let curve = Sweep.run ~samples:21 W.fig456 in
  List.iter
    (fun (p : Sweep.point) ->
      if p.alpha >= curve.beta then approx "ratio 1 above β" 1.0 p.ratio)
    curve.points

let test_sweep_methods () =
  let curve = Sweep.run ~samples:5 W.pigou in
  check_true "uses grid below β"
    (List.exists (fun (p : Sweep.point) -> p.method_used = Sweep.Grid_search) curve.points);
  check_true "uses threshold above β"
    (List.exists (fun (p : Sweep.point) -> p.method_used = Sweep.Exact_threshold) curve.points)

let test_sweep_ratio_degenerate () =
  (* Zero optimum with positive induced cost is an infinite ratio, not a
     silent 1.0; zero against zero is a clean 1.0. *)
  check_true "positive over zero is infinite"
    (Sweep.ratio_of ~opt_cost:0.0 0.5 = Float.infinity);
  approx "zero over zero" 1.0 (Sweep.ratio_of ~opt_cost:0.0 0.0);
  approx "ordinary ratio" 1.5 (Sweep.ratio_of ~opt_cost:2.0 3.0)

(* ---- MSA ---- *)

let test_msa_pigou () =
  let g = Sgr_graph.Digraph.of_edges ~num_nodes:2 [ (0, 1); (0, 1) ] in
  let net =
    Net.single g
      ~latencies:[| Sgr_latency.Latency.linear 1.0; Sgr_latency.Latency.constant 1.0 |]
      ~src:0 ~dst:1 ~demand:1.0
  in
  let nash = Solver.solve ~method_:Solver.Msa ~tol:1e-7 ~max_iter:200_000 Obj.Wardrop net in
  approx ~eps:1e-3 "nash edge 0" 1.0 nash.edge_flow.(0);
  let opt =
    Solver.solve ~method_:Solver.Msa ~tol:1e-7 ~max_iter:200_000 Obj.System_optimum net
  in
  approx ~eps:1e-3 "opt split" 0.5 opt.edge_flow.(0)

let prop_msa_agrees_with_equilibrate =
  qcheck ~count:10 "MSA converges to the same optimum" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let net =
        W.random_layered_network rng ~layers:(1 + Prng.int rng 2) ~width:(1 + Prng.int rng 2) ()
      in
      let a =
        Solver.solve ~method_:Solver.Msa ~tol:1e-8 ~max_iter:200_000 Obj.System_optimum net
      in
      let b = Eq.solve Obj.System_optimum net in
      Vec.linf_dist a.edge_flow b.edge_flow <= 5e-3)

let test_fw_faster_than_msa_in_iterations () =
  (* Ablation sanity: on Fig. 7 the exact line search needs far fewer
     iterations than the 1/k step for the same gap. *)
  let net = W.fig7 () in
  let fw = Solver.solve ~tol:1e-8 ~max_iter:100_000 Obj.System_optimum net in
  let msa =
    Solver.solve ~method_:Solver.Msa ~tol:1e-8 ~max_iter:500_000 Obj.System_optimum net
  in
  check_true
    (Printf.sprintf "fw=%d msa=%d" fw.iterations msa.iterations)
    (fw.iterations <= msa.iterations)

(* ---- β(r) profile ---- *)

let test_beta_profile_pigou_closed_form () =
  let points = Stackelberg.Beta_profile.run ~samples:11 W.pigou ~r_lo:0.1 ~r_hi:3.0 in
  List.iter
    (fun (p : Stackelberg.Beta_profile.point) ->
      approx ~eps:1e-5
        (Printf.sprintf "β(r=%.2f)" p.demand)
        (Stackelberg.Beta_profile.pigou_closed_form p.demand)
        p.beta)
    points

let test_beta_profile_zero_below_half () =
  let points = Stackelberg.Beta_profile.run ~samples:5 W.pigou ~r_lo:0.1 ~r_hi:0.5 in
  List.iter
    (fun (p : Stackelberg.Beta_profile.point) ->
      approx "β = 0 when N = O" 0.0 p.beta;
      approx "PoA = 1 there too" 1.0 p.poa)
    points

let test_beta_profile_validation () =
  match Stackelberg.Beta_profile.run W.pigou ~r_lo:2.0 ~r_hi:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reversed range rejected"

(* ---- worst-case families ---- *)

let test_pigou_degree_poa_matches_bound () =
  List.iter
    (fun d ->
      let t = W.pigou_degree d in
      approx ~eps:1e-5
        (Printf.sprintf "PoA(d=%d) = anarchy value" d)
        (Stackelberg.Bounds.poa_polynomial d)
        (Links.price_of_anarchy t);
      approx ~eps:1e-5
        (Printf.sprintf "closed form (d=%d)" d)
        (W.pigou_degree_poa d) (Links.price_of_anarchy t))
    [ 1; 2; 3; 5; 8 ]

let test_pigou_degree_poa_grows () =
  check_true "unbounded in d"
    (W.pigou_degree_poa 50 > 5.0 && W.pigou_degree_poa 50 > W.pigou_degree_poa 10)

let test_pigou_degree_beta () =
  List.iter
    (fun d ->
      approx ~eps:1e-6
        (Printf.sprintf "β(d=%d)" d)
        (W.pigou_degree_beta d)
        (Stackelberg.Optop.beta (W.pigou_degree d)))
    [ 1; 2; 4; 8 ]

let test_braess_unbounded_beta_closed_form () =
  List.iter
    (fun d ->
      let r = Mop.run (W.braess_unbounded ~degree:d ()) in
      approx ~eps:1e-4
        (Printf.sprintf "β(d=%d) = 2(1-(d+1)^(-1/d))" d)
        (W.braess_unbounded_beta d) r.beta;
      approx ~eps:1e-4 "induced = optimum" r.opt_cost r.induced.cost)
    [ 1; 2; 3; 5 ]

let suite =
  [
    case "β weak = strong on one commodity" test_beta_weak_single_commodity;
    case "β weak >= strong" test_beta_weak_two_commodity;
    case "β weak vs strong, asymmetric demands" test_beta_weak_asymmetric;
    case "net aloof = Nash" test_net_aloof_is_nash;
    case "net SCALE α=1" test_net_scale_full_control;
    case "net LLF α=1" test_net_llf_full_control;
    case "net LLF at β on fig7" test_net_llf_at_beta_fig7;
    case "net heuristics: α validation" test_net_alpha_validation;
    prop_net_heuristics_sane;
    case "sweep: pigou closed form" test_sweep_pigou_matches_closed_form;
    case "sweep: monotone" test_sweep_monotone;
    case "sweep: hits 1 at β" test_sweep_hits_one_at_beta;
    case "sweep: methods" test_sweep_methods;
    case "sweep: degenerate zero-optimum ratio" test_sweep_ratio_degenerate;
    case "msa: pigou" test_msa_pigou;
    prop_msa_agrees_with_equilibrate;
    case "msa vs frank-wolfe iterations" test_fw_faster_than_msa_in_iterations;
    case "β(r): pigou closed form" test_beta_profile_pigou_closed_form;
    case "β(r): zero below r = 1/2" test_beta_profile_zero_below_half;
    case "β(r): validation" test_beta_profile_validation;
    case "pigou family: PoA = anarchy value" test_pigou_degree_poa_matches_bound;
    case "pigou family: PoA unbounded" test_pigou_degree_poa_grows;
    case "pigou family: β closed form" test_pigou_degree_beta;
    case "braess family: β closed form" test_braess_unbounded_beta_closed_form;
  ]
