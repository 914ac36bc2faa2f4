(* The reproduction experiments: one per figure / quantitative claim of the
   paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   recorded outcomes). Each function prints a paper-vs-measured table via
   [Report]. *)

module Links = Sgr_links.Links
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module W = Sgr_workloads.Workloads
module Optop = Stackelberg.Optop
module Mop = Stackelberg.Mop
module S = Stackelberg.Strategies
module LE = Stackelberg.Linear_exact
module Theory = Stackelberg.Theory
module Bounds = Stackelberg.Bounds
module BF = Stackelberg.Brute_force
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance
open Report

(* E1 — Figs. 1-3: Stackelberg parlance on Pigou's example. *)
let e1_pigou () =
  section "E1 (Figs. 1-3)" "Pigou's example: anarchy 4/3, optimum restored with β = 1/2";
  let t = W.pigou in
  let nash = Links.nash t and opt = Links.opt t in
  let r = Optop.run t in
  table
    [
      check_row "C(N)" ~paper:1.0 (Links.cost t nash.assignment);
      check_row "C(O)" ~paper:0.75 (Links.cost t opt.assignment);
      check_row "price of anarchy" ~paper:(4.0 /. 3.0) (Links.price_of_anarchy t);
      check_row "β (price of optimum)" ~paper:0.5 r.beta;
      check_row "Leader S on M2 (Fig. 2)" ~paper:0.5 r.strategy.(1);
      check_row "induced T on M1 (Fig. 3)" ~paper:0.5
        (Links.induced t ~strategy:r.strategy).assignment.(0);
      check_row "a-posteriori anarchy cost" ~paper:1.0 (r.induced_cost /. r.optimum_cost);
    ]

(* E2 — Figs. 4-6: OpTop's run on the five-link instance. *)
let e2_optop () =
  section "E2 (Figs. 4-6)" "OpTop on ℓ = (x, 3/2x, 2x, 5/2x + 1/6, 7/10), r = 1";
  let t = W.fig456 in
  let r = Optop.run t in
  let first_round = List.hd r.rounds in
  let frozen_names =
    String.concat "," (Array.to_list (Array.map (fun i -> Printf.sprintf "M%d" (i + 1)) first_round.frozen))
  in
  table
    [
      info_row "under-loaded links (Fig. 4)" ~paper:"M4, M5" frozen_names;
      check_row "o4 = (0.7 - 1/6)/5" ~paper:(8.0 /. 75.0) r.optimum.(3);
      check_row "o5" ~paper:(27.0 /. 200.0) r.optimum.(4);
      check_row "β_M = o4 + o5 = 29/120" ~paper:(29.0 /. 120.0) r.beta;
      info_row "rounds until termination" ~paper:"freeze once, then stop"
        (string_of_int (List.length r.rounds));
      check_row "induced cost = C(O) (Fig. 6)" ~paper:r.optimum_cost r.induced_cost;
    ]

(* E3 — Fig. 7: MOP on the Braess-like lower-bound graph. *)
let e3_fig7 () =
  section "E3 (Fig. 7)" "MOP on Roughgarden's Example 6.5.1 graph (ε-parameterized)";
  List.iter
    (fun epsilon ->
      let net = W.fig7 ~epsilon () in
      let r = Mop.run net in
      let o = r.opt_edge_flow in
      table
        [
          check_row (Printf.sprintf "[ε=%.2f] o(s→v) = 3/4 - ε" epsilon)
            ~paper:(0.75 -. epsilon) o.(0);
          check_row "o(s→w) = 1/4 + ε" ~paper:(0.25 +. epsilon) o.(1);
          check_row "o(v→w) = 1/2 - 2ε" ~paper:(0.5 -. (2.0 *. epsilon)) o.(2);
          check_row "free flow on P0 = 1/2 - 2ε" ~paper:(0.5 -. (2.0 *. epsilon))
            r.per_commodity.(0).free_flow;
          check_row "β_G = 1/2 + 2ε" ~paper:(0.5 +. (2.0 *. epsilon)) ~eps:1e-4 r.beta;
          check_row "induced C(S+T)/C(O) = 1" ~paper:1.0 ~eps:1e-5
            (r.induced.cost /. r.opt_cost);
          bool_row "β is minimal (Sec. 5.1 release test)" ~paper:"no Leader flow dispensable"
            (Mop.verify_minimality net r);
        ])
    [ 0.0; 0.02; 0.05 ]

(* E4 — Figs. 8-10: the swap construction of Lemma 6.1. *)
let e4_swap () =
  section "E4 (Figs. 8-10)" "Lemma 6.1 swap: reassignment never increases the two-link cost";
  let rng = Prng.create 20060719 in
  let trials = 10_000 in
  let violations = ref 0 in
  let max_gain = ref 0.0 in
  for _ = 1 to trials do
    let slope = Prng.uniform rng ~lo:0.2 ~hi:3.0 in
    let b1 = Prng.uniform rng ~lo:0.0 ~hi:2.0 in
    let b2 = b1 +. Prng.uniform rng ~lo:0.0 ~hi:2.0 in
    let s2 = Prng.uniform rng ~lo:0.0 ~hi:2.0 in
    let t2 = Prng.uniform rng ~lo:0.01 ~hi:2.0 in
    let s1 = s2 +. t2 +. ((b2 -. b1) /. slope) +. Prng.uniform rng ~lo:0.0 ~hi:2.0 in
    let w = Theory.swap ~slope ~b1 ~b2 ~s1 ~s2 ~t2 in
    if w.cost_after > w.cost_before +. 1e-9 then incr violations;
    max_gain := Float.max !max_gain (w.cost_before -. w.cost_after)
  done;
  table
    [
      bool_row
        (Printf.sprintf "cost_after <= cost_before on %d random systems" trials)
        ~paper:"Lemma 6.1" (!violations = 0);
      info_row "largest strict improvement observed" ~paper:"can be > 0"
        (Printf.sprintf "%.4f" !max_gain);
    ]

(* E5 — Theorem 2.4: exact strategies on hard common-slope instances. *)
let e5_linear_exact () =
  section "E5 (Thm 2.4)" "optimal strategy for α < β on common-slope linear links";
  let rng = Prng.create 7 in
  let rows = ref [] in
  let tried = ref 0 in
  while !tried < 5 do
    let t = W.random_common_slope_links rng ~m:(2 + Prng.int rng 2) ~demand:1.0 () in
    let beta = Optop.beta t in
    if beta > 0.1 then begin
      incr tried;
      let alpha = Prng.uniform rng ~lo:0.05 ~hi:beta in
      let exact = LE.solve t ~alpha in
      let bf = BF.optimal_strategy ~resolution:48 t ~alpha in
      rows :=
        {
          quantity =
            Printf.sprintf "instance %d (m=%d, α=%.3f < β=%.3f): exact vs grid" !tried
              (Links.num_links t) alpha beta;
          paper = Printf.sprintf "%.6f (grid opt)" bf.induced_cost;
          measured = Printf.sprintf "%.6f" exact.induced_cost;
          pass =
            exact.induced_cost <= bf.induced_cost +. 1e-7
            && bf.induced_cost -. exact.induced_cost <= 5e-3;
        }
        :: !rows
    end
  done;
  table (List.rev !rows)

(* E6 — Theorem 7.2: useless strategies change nothing. *)
let e6_useless () =
  section "E6 (Thm 7.2)" "strategies with s <= N induce exactly the initial equilibrium";
  let rng = Prng.create 11 in
  let trials = 500 in
  let violations = ref 0 in
  for i = 1 to trials do
    let t = W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 () in
    ignore i;
    let nash = (Links.nash t).assignment in
    let strategy = Array.map (fun n -> Prng.uniform rng ~lo:0.0 ~hi:1.0 *. n) nash in
    if not (Theory.useless_strategy_fixed_point t ~strategy) then incr violations
  done;
  table
    [
      bool_row
        (Printf.sprintf "S+T = N on %d random (instance, sub-Nash strategy) pairs" trials)
        ~paper:"Theorem 7.2" (!violations = 0);
    ]

(* E7 — Theorem 7.4 / Lemma 7.5: frozen links get no induced flow. *)
let e7_frozen () =
  section "E7 (Thm 7.4 / Lemma 7.5)" "frozen links receive no induced selfish flow";
  let rng = Prng.create 13 in
  let trials = 500 in
  let violations = ref 0 in
  for _ = 1 to trials do
    let t = W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 () in
    let nash = (Links.nash t).assignment in
    let m = Links.num_links t in
    let budget = ref t.Links.demand in
    let strategy = Array.make m 0.0 in
    Array.iteri
      (fun i n ->
        let roll = Prng.int rng 3 in
        let want =
          if roll = 0 then 0.0
          else if roll = 1 then Prng.uniform rng ~lo:0.0 ~hi:n
          else Prng.uniform rng ~lo:n ~hi:(n +. 0.3)
        in
        let take = Float.min want !budget in
        strategy.(i) <- take;
        budget := !budget -. take)
      nash;
    if not (Theory.frozen_receive_nothing t ~strategy) then incr violations
  done;
  table
    [
      bool_row
        (Printf.sprintf "t_i = 0 on frozen links, %d random mixed strategies" trials)
        ~paper:"Thm 7.4 / Lemma 7.5" (!violations = 0);
    ]

(* E8 — Proposition 7.1: Nash monotonicity in the demand. *)
let e8_monotone () =
  section "E8 (Prop 7.1)" "Nash link flows are monotone in the total demand";
  let rng = Prng.create 17 in
  let trials = 500 in
  let violations = ref 0 in
  for _ = 1 to trials do
    let t =
      match Prng.int rng 2 with
      | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:2.0 ()
      | _ -> W.random_polynomial_links rng ~m:(2 + Prng.int rng 6) ~demand:2.0 ()
    in
    let r' = Prng.uniform rng ~lo:0.0 ~hi:2.0 in
    if not (Theory.nash_monotone t ~r') then incr violations
  done;
  table
    [
      bool_row
        (Printf.sprintf "N(r') <= N(r) pointwise, %d random (instance, r') pairs" trials)
        ~paper:"Proposition 7.1" (!violations = 0);
    ]

(* E9 — the quoted LLF bounds (Eq. (2) context) and a SCALE comparison. *)
let e9_bounds () =
  section "E9 ([41] Th. 6.4.4/6.4.5)" "LLF α-sweep: 1/α and 4/(3+α) guarantees; SCALE";
  let rng = Prng.create 19 in
  let instances =
    List.init 40 (fun _ ->
        match Prng.int rng 3 with
        | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 ()
        | 1 -> W.random_polynomial_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 ()
        | _ -> W.random_mm1_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 ())
  in
  let affine_instances =
    List.init 40 (fun _ -> W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:1.0 ())
  in
  (* Each instance with its optimum, solved once for every α. *)
  let with_optimum = List.map (fun t -> (t, (Links.opt t).assignment)) in
  let instances = with_optimum instances and affine_instances = with_optimum affine_instances in
  let rows = ref [] in
  List.iter
    (fun alpha ->
      let worst_any =
        List.fold_left
          (fun acc (t, optimum) -> Float.max acc (S.llf t ~optimum ~alpha).ratio_to_opt)
          1.0 instances
      in
      let worst_affine =
        List.fold_left
          (fun acc (t, optimum) -> Float.max acc (S.llf t ~optimum ~alpha).ratio_to_opt)
          1.0 affine_instances
      in
      let worst_scale =
        List.fold_left
          (fun acc (t, optimum) -> Float.max acc (S.scale t ~optimum ~alpha).ratio_to_opt)
          1.0 instances
      in
      rows :=
        {
          quantity = Printf.sprintf "α=%.2f  worst LLF ratio (any latency)" alpha;
          paper = Printf.sprintf "<= 1/α = %.3f" (Bounds.one_over_alpha alpha);
          measured = Printf.sprintf "%.4f" worst_any;
          pass = worst_any <= Bounds.one_over_alpha alpha +. 1e-6;
        }
        :: {
             quantity = Printf.sprintf "α=%.2f  worst LLF ratio (affine)" alpha;
             paper = Printf.sprintf "<= 4/(3+α) = %.4f" (Bounds.linear_llf alpha);
             measured = Printf.sprintf "%.4f" worst_affine;
             pass = worst_affine <= Bounds.linear_llf alpha +. 1e-6;
           }
        :: {
             quantity = Printf.sprintf "α=%.2f  worst SCALE ratio (info)" alpha;
             paper = "no guarantee quoted";
             measured = Printf.sprintf "%.4f" worst_scale;
             pass = true;
           }
        :: !rows)
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ];
  table (List.rev !rows)

(* E10 — Corollary 2.2: α >= β is easy (ratio exactly 1), α < β is not. *)
let e10_threshold () =
  section "E10 (Cor 2.2)" "the threshold behaviour at α = β_M";
  let t = W.fig456 in
  let r = Optop.run t in
  let beta = r.beta in
  let opt_cost = r.optimum_cost in
  let above = BF.optimal_strategy ~resolution:36 t ~alpha:(Float.min 1.0 (beta +. 0.02)) in
  let below = BF.optimal_strategy ~resolution:36 t ~alpha:(beta *. 0.9) in
  ignore above;
  table
    [
      check_row "β_M (fig 4-6)" ~paper:(29.0 /. 120.0) beta;
      check_row "OpTop at α = β: C(S+T)" ~paper:opt_cost r.induced_cost;
      bool_row "grid search at α = 0.9β stays above C(O)"
        ~paper:"(M,r,α<β) cannot reach C(O)"
        (below.induced_cost > opt_cost +. 1e-6);
      bool_row "grid search at α = β+2% reaches C(O) (within grid error)"
        ~paper:"(M,r,α>=β) reaches C(O)"
        (BF.can_reach_optimum ~resolution:36 ~eps:2e-3 t ~alpha:(Float.min 1.0 (beta +. 0.02)));
    ]

(* E11 — Theorem 2.1: k commodities. *)
let e11_k_commodity () =
  section "E11 (Thm 2.1)" "MOP on a 2-commodity network";
  let net = W.two_commodity () in
  let r = Mop.run net in
  table
    [
      info_row "β (2 commodities)" ~paper:"computed in poly time"
        (Printf.sprintf "%.6f" r.beta);
      check_row "induced C(S+T) = C(O)" ~paper:r.opt_cost ~eps:1e-4 r.induced.cost;
      bool_row "induced edge flows = O" ~paper:"S+T ≡ O"
        (Vec.linf_dist r.induced.combined_edge_flow r.opt_edge_flow <= 1e-3);
      check_row "residual follower Wardrop gap" ~paper:0.0 ~eps:1e-6 r.induced.wardrop_gap;
    ]

(* E12 — the classic Braess graph: β = 1 and partial control never reaches
   the optimum. *)
let e12_braess_negative () =
  section "E12 (§1.1(ii))" "classic Braess graph: the optimum needs full control";
  let net = W.braess_classic () in
  let r = Mop.run net in
  let rows =
    [
      check_row "C(N)" ~paper:2.0 r.nash_cost;
      check_row "C(O)" ~paper:1.5 r.opt_cost;
      check_row "price of anarchy" ~paper:(4.0 /. 3.0) (r.nash_cost /. r.opt_cost);
      check_row "β_G" ~paper:1.0 r.beta;
    ]
  in
  (* SCALE sweep: strictly above C(O) for every α < 1. *)
  let scale_rows =
    List.map
      (fun alpha ->
        let leader = Vec.scale alpha r.opt_edge_flow in
        let cost =
          Stackelberg.Induced.cost_of_strategy net ~leader_edge_flow:leader
            ~follower_demands:[| 1.0 -. alpha |]
        in
        {
          quantity = Printf.sprintf "SCALE(α=%.2f) induced cost" alpha;
          paper = "> C(O) = 1.5 for α < 1";
          measured = Printf.sprintf "%.6f" cost;
          pass = cost > 1.5 +. 1e-6;
        })
      [ 0.25; 0.5; 0.75; 0.95 ]
  in
  table (rows @ scale_rows)

(* E13 — footnote 6: the Sharma–Williamson threshold. *)
let e13_sharma_williamson () =
  section "E13 (footnote 6)" "improving strategies control >= min under-loaded Nash load";
  let rng = Prng.create 23 in
  let rows = ref [] in
  let tried = ref 0 in
  while !tried < 4 do
    let t = W.random_affine_links rng ~m:2 ~demand:1.0 () in
    let threshold = Theory.sharma_williamson_threshold t in
    if threshold <> Float.infinity && threshold > 0.05 then begin
      incr tried;
      let nash_cost = Links.cost t (Links.nash t).assignment in
      let alpha = 0.9 *. threshold /. t.Links.demand in
      let bf = BF.optimal_strategy ~resolution:24 t ~alpha in
      rows :=
        {
          quantity =
            Printf.sprintf "instance %d: best cost with budget 0.9·threshold (%.4f)" !tried
              (0.9 *. threshold);
          paper = Printf.sprintf ">= C(N) = %.6f" nash_cost;
          measured = Printf.sprintf "%.6f" bf.induced_cost;
          pass = bf.induced_cost >= nash_cost -. 1e-6;
        }
        :: !rows
    end
  done;
  table (List.rev !rows)

(* E14 — the opening claim: the coordination ratio of Expression (1) can
   be arbitrarily larger than 1 (Pigou family of growing degree), and the
   price of optimum for the family has a closed form. *)
let e14_unbounded_poa () =
  section "E14 (Expr. (1), [42])" "Pigou family x^d vs 1: PoA unbounded, β closed form";
  let rows =
    List.concat_map
      (fun d ->
        let t = W.pigou_degree d in
        [
          check_row
            (Printf.sprintf "d=%-3d PoA = anarchy value α(d)" d)
            ~paper:(Bounds.poa_polynomial d) ~eps:1e-5 (Links.price_of_anarchy t);
          check_row
            (Printf.sprintf "d=%-3d β = 1 - (d+1)^(-1/d)" d)
            ~paper:(W.pigou_degree_beta d) ~eps:1e-6 (Optop.beta t);
        ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  table rows

(* E15 — the degree-d Braess family: β_G follows its closed form and MOP
   still induces the optimum on every member. *)
let e15_braess_family () =
  section "E15 (Braess family)" "β_G = 2(1-(d+1)^(-1/d)) on the degree-d Braess graph";
  let rows =
    List.concat_map
      (fun d ->
        let r = Mop.run (W.braess_unbounded ~degree:d ()) in
        [
          check_row (Printf.sprintf "d=%d β_G" d) ~paper:(W.braess_unbounded_beta d) ~eps:1e-4
            r.beta;
          check_row (Printf.sprintf "d=%d induced/optimum ratio" d) ~paper:1.0 ~eps:1e-4
            (r.induced.cost /. r.opt_cost);
        ])
      [ 1; 2; 3; 5; 8 ]
  in
  table rows

(* E16 — the a-posteriori anarchy cost curve (M,r,α) on Pigou, against the
   analytic solution. *)
let e16_alpha_sweep () =
  section "E16 (Expr. (2))" "the curve α ↦ (M,r,α) on Pigou vs the closed form";
  let curve = Stackelberg.Alpha_sweep.run ~samples:11 W.pigou in
  let rows =
    check_row "β (curve hits 1 here)" ~paper:0.5 curve.Stackelberg.Alpha_sweep.beta
    :: List.map
         (fun (p : Stackelberg.Alpha_sweep.point) ->
           check_row
             (Printf.sprintf "ratio at α=%.1f" p.alpha)
             ~paper:(Stackelberg.Alpha_sweep.pigou_closed_form p.alpha)
             ~eps:2e-3 p.ratio)
         curve.points
  in
  table rows

(* E17 — solver ablation: three independent methods, one optimum. *)
let e17_solver_ablation () =
  section "E17 (ablation)" "path equilibration vs Frank-Wolfe vs MSA on Fig. 7";
  let net = W.fig7 () in
  let eq = Eq.solve Obj.System_optimum net in
  let module Solver = Sgr_assign.Solver in
  let fw = Solver.solve ~tol:1e-9 ~max_iter:100_000 Obj.System_optimum net in
  let msa = Solver.solve ~method_:Solver.Msa ~tol:1e-6 ~max_iter:200_000 Obj.System_optimum net in
  let c_eq = Net.cost net eq.edge_flow in
  let c_fw = Net.cost net fw.edge_flow in
  let c_msa = Net.cost net msa.edge_flow in
  table
    [
      check_row "equilibrate C(O)" ~paper:2.4168 ~eps:1e-4 c_eq;
      check_row "frank-wolfe C(O)" ~paper:2.4168 ~eps:1e-4 c_fw;
      check_row "msa C(O)" ~paper:2.4168 ~eps:1e-3 c_msa;
      info_row "iterations (equilibrate sweeps / FW / MSA)" ~paper:"exactness varies"
        (Printf.sprintf "%d / %d / %d" eq.sweeps fw.iterations msa.iterations);
      bool_row "FW needs fewer iterations than MSA at equal gap" ~paper:"line search helps"
        (fw.iterations <= msa.iterations);
    ]

(* E18 — ablation: the Theorem-2.4-shaped partition search as a heuristic
   on hard instances with nonlinear latencies, vs LLF/SCALE and the grid
   optimum. *)
let e18_partition_heuristic () =
  section "E18 (ablation)" "partition heuristic vs LLF/SCALE/grid on hard nonlinear instances";
  let rng = Prng.create 29 in
  let rows = ref [] in
  let tried = ref 0 in
  while !tried < 5 do
    let t = W.random_polynomial_links rng ~m:(2 + Prng.int rng 2) ~demand:1.0 () in
    let beta = Optop.beta t in
    if beta > 0.1 then begin
      incr tried;
      let alpha = Prng.uniform rng ~lo:0.05 ~hi:beta in
      let h = Stackelberg.Partition_heuristic.solve t ~alpha in
      let grid = BF.optimal_strategy ~resolution:48 t ~alpha in
      let optimum = (Links.opt t).assignment in
      let llf = (S.llf t ~optimum ~alpha).induced_cost in
      let scale = (S.scale t ~optimum ~alpha).induced_cost in
      rows :=
        {
          quantity =
            Printf.sprintf "instance %d (α=%.3f < β=%.3f): partition vs grid [llf %.4f, scale %.4f]"
              !tried alpha beta llf scale;
          paper = Printf.sprintf "%.6f (grid opt)" grid.induced_cost;
          measured = Printf.sprintf "%.6f" h.induced_cost;
          (* Heuristic must be within 1% of the grid optimum and no worse
             than the classical heuristics. *)
          pass =
            h.induced_cost <= Float.min llf scale +. 1e-6
            && h.induced_cost <= grid.induced_cost +. (0.01 *. grid.induced_cost);
        }
        :: !rows
    end
  done;
  table (List.rev !rows)

(* E19 — the infinite-user model is the right limit: atomic splittable
   equilibria converge to the Wardrop equilibrium as players multiply, and
   OpTop's Leader strategy already induces near-optimal cost against
   finitely many followers. *)
let e19_atomic_limit () =
  section "E19 (model limit, [20])" "finitely many followers vs the paper's infinite-user model";
  let module A = Sgr_atomic.Atomic_links in
  let lats = W.pigou.Links.latencies in
  let wardrop = (Links.nash W.pigou).assignment in
  let rows =
    List.map
      (fun n ->
        let t = A.split_evenly lats ~total:1.0 ~players:n in
        let profile, _ = A.equilibrium t in
        let gap = Vec.linf_dist (A.total_load t profile) wardrop in
        check_row
          (Printf.sprintf "pigou, n=%-3d |atomic - wardrop| = 1/(n+1)" n)
          ~paper:(1.0 /. float_of_int (n + 1))
          ~eps:1e-4 gap)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  (* OpTop's strategy against n atomic followers on the Figs. 4-6 system:
     leader freezes the under-loaded links; followers split the rest. *)
  let optop = Optop.run W.fig456 in
  let shifted =
    Array.mapi (fun i lat -> Sgr_latency.Latency.shift optop.strategy.(i) lat)
      W.fig456.Links.latencies
  in
  let remaining = 1.0 -. Vec.sum optop.strategy in
  let follower_rows =
    List.map
      (fun n ->
        let t = A.split_evenly shifted ~total:remaining ~players:n in
        let profile, _ = A.equilibrium t in
        let load = A.total_load t profile in
        let combined = Vec.add optop.strategy load in
        let cost = Links.cost W.fig456 combined in
        {
          quantity = Printf.sprintf "fig4-6, OpTop leader vs n=%d atomic followers" n;
          paper = Printf.sprintf "-> C(O) = %.6f as n grows" optop.optimum_cost;
          measured = Printf.sprintf "%.6f" cost;
          pass = cost >= optop.optimum_cost -. 1e-9 && cost <= optop.nash_cost +. 1e-9;
        })
      [ 1; 4; 16; 64 ]
  in
  table (rows @ follower_rows)

(* E20 — the price of anarchy is independent of the network topology [38]:
   the measured PoA never exceeds the worst per-latency Pigou bound, on
   parallel links and on networks alike. *)
let e20_pigou_bound () =
  section "E20 ([38])" "PoA <= worst Pigou bound, independent of topology";
  let rng = Prng.create 31 in
  let check_links label t =
    let bound =
      Array.fold_left
        (fun acc lat -> Float.max acc (Bounds.pigou_bound ~r_max:4.0 lat))
        1.0 t.Links.latencies
    in
    let poa = Links.price_of_anarchy t in
    {
      quantity = label;
      paper = Printf.sprintf "<= %.4f (pigou bound)" bound;
      measured = Printf.sprintf "%.4f" poa;
      pass = poa <= bound +. 1e-4;
    }
  in
  let check_net label net =
    let bound =
      Array.fold_left
        (fun acc lat -> Float.max acc (Bounds.pigou_bound ~r_max:4.0 lat))
        1.0 net.Net.latencies
    in
    let nash = Eq.solve Obj.Wardrop net in
    let opt = Eq.solve Obj.System_optimum net in
    let poa = Net.cost net nash.edge_flow /. Net.cost net opt.edge_flow in
    {
      quantity = label;
      paper = Printf.sprintf "<= %.4f (pigou bound)" bound;
      measured = Printf.sprintf "%.4f" poa;
      pass = poa <= bound +. 1e-4;
    }
  in
  let rows =
    [
      check_links "pigou (parallel links)" W.pigou;
      check_links "fig4-6 (parallel links)" W.fig456;
      check_links "pigou degree 4" (W.pigou_degree 4);
      check_net "fig7 (network)" (W.fig7 ());
      check_net "classic braess (network)" (W.braess_classic ());
    ]
    @ List.init 5 (fun k ->
          check_links
            (Printf.sprintf "random polynomial links #%d" (k + 1))
            (W.random_polynomial_links rng ~m:(2 + Prng.int rng 5) ~demand:1.0 ()))
    @ List.init 3 (fun k ->
          check_net
            (Printf.sprintf "random 2-commodity grid #%d" (k + 1))
            (W.random_multicommodity rng ~rows:3 ~cols:3 ~commodities:2 ()))
  in
  table rows

(* E21 — the other lever: marginal-cost tolls (intro, [4]) reach the
   first-best on every instance, including those where the Stackelberg
   Leader needs all the flow. *)
let e21_tolls () =
  section "E21 (intro, [4])" "marginal-cost tolls vs Stackelberg control";
  let links_row label t =
    let _, cost = Stackelberg.Tolls.links_outcome t in
    let opt_cost = Links.cost t (Links.opt t).assignment in
    let beta = Optop.beta t in
    {
      quantity = Printf.sprintf "%s (β = %.3f): tolled cost" label beta;
      paper = Printf.sprintf "= C(O) = %.6f" opt_cost;
      measured = Printf.sprintf "%.6f" cost;
      pass = Tol.approx ~eps:1e-5 cost opt_cost;
    }
  in
  let net_row label net =
    let _, cost = Stackelberg.Tolls.network_outcome net in
    let r = Mop.run net in
    {
      quantity = Printf.sprintf "%s (β_G = %.3f): tolled cost" label r.beta;
      paper = Printf.sprintf "= C(O) = %.6f" r.opt_cost;
      measured = Printf.sprintf "%.6f" cost;
      pass = Tol.approx ~eps:1e-4 cost r.opt_cost;
    }
  in
  table
    [
      links_row "pigou" W.pigou;
      links_row "fig4-6" W.fig456;
      links_row "pigou degree 8" (W.pigou_degree 8);
      net_row "fig7" (W.fig7 ());
      net_row "classic braess" (W.braess_classic ());
    ]

(* E22 — atomic Braess: with finitely many splittable players the paradox
   is milder; the equilibrium cost interpolates C(O) -> C(N). *)
let e22_atomic_braess () =
  section "E22 (atomic Braess)" "equilibrium cost interpolates C(O)=1.5 -> C(N)=2 in players";
  let module AN = Sgr_atomic.Atomic_net in
  let prev = ref 0.0 in
  let rows =
    List.map
      (fun n ->
        let t = AN.replicate (W.braess_classic ()) ~players:n in
        let profile, _ = AN.equilibrium t in
        let cost = AN.social_cost t profile in
        let ok = cost >= !prev -. 1e-7 && 1.5 -. 1e-7 <= cost && cost <= 2.0 +. 1e-7 in
        prev := cost;
        {
          quantity = Printf.sprintf "n=%-3d equilibrium cost" n;
          paper = "nondecreasing, within [1.5, 2]";
          measured = Printf.sprintf "%.6f" cost;
          pass = ok;
        })
      [ 1; 2; 4; 8; 16 ]
  in
  table rows

(* E23 — β as a function of demand: the Pigou closed form
   β(r) = max(0, 1 - 1/(2r)), and the M/M/1 regimes of the paper's §2
   remark ("highly appealing links or large groups of identical links
   make β small"). *)
let e23_beta_profile () =
  section "E23 (β vs demand)" "β_M(r): Pigou closed form; M/M/1 regimes (§2 remark)";
  let pigou_rows =
    Stackelberg.Beta_profile.run ~samples:6 W.pigou ~r_lo:0.5 ~r_hi:3.0
    |> List.map (fun (p : Stackelberg.Beta_profile.point) ->
           check_row
             (Printf.sprintf "pigou β(r=%.1f) = 1 - 1/(2r)" p.demand)
             ~paper:(Stackelberg.Beta_profile.pigou_closed_form p.demand)
             ~eps:1e-5 p.beta)
  in
  let mm1_row label t =
    let beta = Optop.beta t in
    info_row label ~paper:"small β (§2 remark)" (Printf.sprintf "β = %.4f" beta)
  in
  table
    (pigou_rows
    @ [
        mm1_row "M/M/1: 5 identical links"
          (W.mm1_links ~capacities:[| 0.6; 0.6; 0.6; 0.6; 0.6 |] ~demand:1.0);
        mm1_row "M/M/1: 2 strong + 3 weak"
          (W.mm1_links ~capacities:[| 2.0; 1.8; 0.4; 0.35; 0.3 |] ~demand:1.0);
        mm1_row "M/M/1: geometric capacities"
          (W.mm1_links ~capacities:[| 1.6; 0.8; 0.4; 0.2; 0.1 |] ~demand:1.0);
      ])

(* E24 — the discrete cousin (Fotakis [12]): unsplittable players, LLF
   Stackelberg sweep over the number of dictated players. *)
let e24_discrete_llf () =
  section "E24 (Fotakis [12])" "unsplittable congestion game: LLF sweep over controlled players";
  let module C = Sgr_discrete.Congestion in
  let t =
    C.make
      [| Sgr_latency.Latency.linear 1.0; Sgr_latency.Latency.constant 2.5 |]
      ~players:3
  in
  let nash_cost = C.social_cost t (C.nash t) in
  let opt_cost = C.optimum_cost t in
  let rows =
    [
      check_row "C(N) (pure equilibrium)" ~paper:6.5 nash_cost;
      check_row "C(O) (exact DP)" ~paper:6.0 opt_cost;
    ]
    @ List.map
        (fun k ->
          let state = C.stackelberg_llf t ~controlled:k in
          let cost = C.social_cost t state in
          {
            quantity = Printf.sprintf "LLF with k=%d dictated players" k;
            paper = "C(O) <= cost <= C(N), nonincreasing";
            measured = Printf.sprintf "%.4f" cost;
            pass = opt_cost -. 1e-9 <= cost && cost <= nash_cost +. 1e-9;
          })
        [ 0; 1; 2; 3 ]
  in
  (* Random sanity at scale. *)
  let rng = Prng.create 37 in
  let random_rows =
    List.init 3 (fun i ->
        let m = 2 + Prng.int rng 3 and n = 4 + Prng.int rng 5 in
        let lats =
          Array.init m (fun _ ->
              Sgr_latency.Latency.affine
                ~slope:(Prng.uniform rng ~lo:0.2 ~hi:2.0)
                ~intercept:(Prng.uniform rng ~lo:0.0 ~hi:2.0))
        in
        let t = C.make lats ~players:n in
        let full = C.social_cost t (C.stackelberg_llf t ~controlled:n) in
        check_row
          (Printf.sprintf "random game #%d: full control = C(O)" (i + 1))
          ~paper:(C.optimum_cost t) ~eps:1e-9 full)
  in
  table (rows @ random_rows)

let run_all () =
  Format.printf "Reproduction experiments — Kaporis & Spirakis, \"The price of optimum in@.";
  Format.printf "Stackelberg games\" (SPAA'06 / TCS 410(8-10):745-755, 2009)@.";
  e1_pigou ();
  e2_optop ();
  e3_fig7 ();
  e4_swap ();
  e5_linear_exact ();
  e6_useless ();
  e7_frozen ();
  e8_monotone ();
  e9_bounds ();
  e10_threshold ();
  e11_k_commodity ();
  e12_braess_negative ();
  e13_sharma_williamson ();
  e14_unbounded_poa ();
  e15_braess_family ();
  e16_alpha_sweep ();
  e17_solver_ablation ();
  e18_partition_heuristic ();
  e19_atomic_limit ();
  e20_pigou_bound ();
  e21_tolls ();
  e22_atomic_braess ();
  e23_beta_profile ();
  e24_discrete_llf ()
