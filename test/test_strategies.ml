(* Tests for the baseline strategies (LLF, SCALE, Aloof) and the published
   guarantees the paper quotes for them. *)

open Helpers
module Links = Sgr_links.Links
module S = Stackelberg.Strategies
module Bounds = Stackelberg.Bounds
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec
module L = Sgr_latency.Latency

let optimum t = (Links.opt t).assignment

let test_aloof_is_nash () =
  let o = S.aloof W.pigou in
  approx "aloof = C(N)" 1.0 o.induced_cost;
  approx "ratio = PoA" (4.0 /. 3.0) o.ratio_to_opt

let test_llf_budget () =
  let o = S.llf W.fig456 ~optimum:(optimum W.fig456) ~alpha:0.3 in
  approx "spends αr" 0.3 (Vec.sum o.strategy)

let test_llf_order () =
  (* LLF saturates the slowest-at-optimum links first. In fig456, the
     largest optimal latency is ℓ5(o5) = 0.7 = ℓ4(o4)... all links have
     latency <= level at optimum; check that the budget lands on the
     highest-latency links. *)
  let instance = W.fig456 in
  let opt = (Links.opt instance).assignment in
  let o = S.llf instance ~optimum:opt ~alpha:0.2 in
  (* Budget 0.2 covers the top-latency links first; whatever they are,
     every fully-saturated link must have latency >= any untouched one. *)
  let lat i = Sgr_latency.Latency.eval instance.Links.latencies.(i) opt.(i) in
  let saturated i = Sgr_numerics.Tolerance.approx o.strategy.(i) opt.(i) && opt.(i) > 0.0 in
  let untouched i = o.strategy.(i) = 0.0 in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          if saturated i && untouched j then
            check_true "LLF order respected" (lat i >= lat j -. 1e-9))
        o.strategy)
    o.strategy

let test_llf_alpha_one_is_optimum () =
  let o = S.llf W.fig456 ~optimum:(optimum W.fig456) ~alpha:1.0 in
  approx "full control = optimum" 1.0 o.ratio_to_opt

let test_llf_alpha_beta_reaches_optimum_pigou () =
  (* On Pigou, LLF with α = β = 1/2 already induces the optimum: the
     largest-latency link is the constant one and o2 = 1/2 = αr. *)
  let o = S.llf W.pigou ~optimum:(optimum W.pigou) ~alpha:0.5 in
  approx "ratio 1" 1.0 o.ratio_to_opt

let test_scale_pigou () =
  let o = S.scale W.pigou ~optimum:(optimum W.pigou) ~alpha:0.5 in
  (* SCALE puts 1/4 on each link; followers flood link 1 again. *)
  approx_array "strategy" [| 0.25; 0.25 |] o.strategy;
  check_true "scale does not reach optimum here" (o.ratio_to_opt > 1.0 +. 1e-6)

let test_alpha_validation () =
  match S.llf W.pigou ~optimum:(optimum W.pigou) ~alpha:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha > 1 rejected"

let test_bounds_values () =
  approx "1/α" 4.0 (Bounds.one_over_alpha 0.25);
  check_true "1/0 = ∞" (Bounds.one_over_alpha 0.0 = Float.infinity);
  approx "4/(3+α) at 1" 1.0 (Bounds.linear_llf 1.0);
  approx "4/(3+α) at 0 = PoA bound" Bounds.poa_linear (Bounds.linear_llf 0.0);
  approx "poly PoA degree 1" (4.0 /. 3.0) (Bounds.poa_polynomial 1);
  check_true "poly PoA grows with degree"
    (Bounds.poa_polynomial 4 > Bounds.poa_polynomial 2)

let test_pigou_bound_closed_forms () =
  approx ~eps:1e-4 "linear latency -> 4/3" (4.0 /. 3.0)
    (Bounds.pigou_bound (L.linear 2.0));
  let affine_bound = Bounds.pigou_bound (L.affine ~slope:1.0 ~intercept:0.5) in
  check_true "affine bound in [1, 4/3]"
    (1.0 <= affine_bound && affine_bound <= (4.0 /. 3.0) +. 1e-6);
  List.iter
    (fun d ->
      approx ~eps:1e-3
        (Printf.sprintf "x^%d -> anarchy value" d)
        (Bounds.poa_polynomial d)
        (Bounds.pigou_bound (L.monomial ~coeff:1.0 ~degree:d)))
    [ 1; 2; 3 ];
  approx ~eps:1e-4 "constants are harmless" 1.0 (Bounds.pigou_bound (L.constant 1.0))

let prop_poa_below_pigou_bound =
  (* Roughgarden: the price of anarchy never exceeds the worst Pigou
     bound among the instance's latencies, whatever the topology — here
     on random parallel-link instances with demand within r_max. *)
  qcheck ~count:40 "PoA <= max link Pigou bound" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let t =
        match Prng.int rng 2 with
        | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 5) ~demand:1.0 ()
        | _ -> W.random_polynomial_links rng ~m:(2 + Prng.int rng 5) ~demand:1.0 ()
      in
      let bound =
        Array.fold_left
          (fun acc lat -> Float.max acc (Bounds.pigou_bound ~r_max:2.0 lat))
          1.0 t.Links.latencies
      in
      Links.price_of_anarchy t <= bound +. 1e-4)

let random_affine seed =
  let rng = Prng.create seed in
  W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ()

let random_any seed =
  let rng = Prng.create seed in
  match Prng.int rng 3 with
  | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ()
  | 1 ->
      W.random_polynomial_links rng ~m:(2 + Prng.int rng 6)
        ~demand:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ()
  | _ -> W.random_mm1_links rng ~m:(2 + Prng.int rng 6) ~demand:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ()

let alphas = [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let prop_llf_one_over_alpha =
  qcheck ~count:60 "LLF guarantee C(S+T) <= (1/α)·C(O)" QCheck.small_nat (fun seed ->
      let t = random_any (seed + 1) in
      List.for_all
        (fun alpha ->
          let o = S.llf t ~optimum:(optimum t) ~alpha in
          o.ratio_to_opt <= Bounds.one_over_alpha alpha +. 1e-6)
        alphas)

let prop_llf_linear_bound =
  qcheck ~count:60 "LLF guarantee 4/(3+α) on affine instances" QCheck.small_nat (fun seed ->
      let t = random_affine (seed + 1) in
      List.for_all
        (fun alpha ->
          let o = S.llf t ~optimum:(optimum t) ~alpha in
          o.ratio_to_opt <= Bounds.linear_llf alpha +. 1e-6)
        alphas)

let prop_ratio_at_least_one =
  qcheck "no strategy beats the optimum" QCheck.small_nat (fun seed ->
      let t = random_any (seed + 1) in
      List.for_all
        (fun alpha ->
          (S.llf t ~optimum:(optimum t) ~alpha).ratio_to_opt >= 1.0 -. 1e-6
          && (S.scale t ~optimum:(optimum t) ~alpha).ratio_to_opt >= 1.0 -. 1e-6)
        [ 0.3; 0.7 ])

let prop_llf_at_least_beta_reaches_optimum =
  qcheck ~count:60 "LLF with α >= β induces exactly C(O)" QCheck.small_nat (fun seed ->
      let t = random_any (seed + 1) in
      let beta = Stackelberg.Optop.beta t in
      (* LLF saturates optimal loads from the largest latency down; with
         budget at least β·r it covers every under-loaded link (they all
         sit at the top of the latency order at the optimum level). *)
      let o = S.llf t ~optimum:(optimum t) ~alpha:(Float.min 1.0 (beta +. 1e-9)) in
      Sgr_numerics.Tolerance.approx ~eps:1e-4 o.ratio_to_opt 1.0)

let prop_aloof_matches_nash_cost =
  qcheck "aloof cost equals C(N)" QCheck.small_nat (fun seed ->
      let t = random_any (seed + 1) in
      let o = S.aloof t in
      let nash_cost = Links.cost t (Links.nash t).assignment in
      Sgr_numerics.Tolerance.approx ~eps:1e-6 o.induced_cost nash_cost)

let test_llf_work_order_free () =
  (* LLF evaluates each link's latency at the optimum once, before it
     sorts, so listing the links in another order permutes its strategy
     and leaves its work unchanged. *)
  let t = W.random_polynomial_links (Prng.create 1) ~m:10 () in
  let opt = optimum t in
  let evaluations = Sgr_obs.Obs.counter "latency.evaluations" in
  let run t opt =
    let before = Sgr_obs.Obs.value evaluations in
    let o = S.llf t ~optimum:opt ~alpha:0.3 in
    (o.strategy, Sgr_obs.Obs.value evaluations - before)
  in
  let strategy, work = run t opt in
  for seed = 1 to 20 do
    let perm = Array.init 10 Fun.id in
    Prng.shuffle (Prng.create seed) perm;
    let relisted =
      Links.make (Array.map (fun i -> t.Links.latencies.(i)) perm) ~demand:t.Links.demand
    in
    let s, w = run relisted (Array.map (fun i -> opt.(i)) perm) in
    Alcotest.(check int) "latency evaluations" work w;
    Array.iteri
      (fun k i ->
        check_true "strategy, relisted"
          (Int64.equal (Int64.bits_of_float s.(k)) (Int64.bits_of_float strategy.(i))))
      perm
  done

let suite =
  [
    case "aloof = plain Nash" test_aloof_is_nash;
    case "llf: spends the budget" test_llf_budget;
    case "llf: saturation order" test_llf_order;
    case "llf: α = 1 gives the optimum" test_llf_alpha_one_is_optimum;
    case "llf: α = β on pigou" test_llf_alpha_beta_reaches_optimum_pigou;
    case "scale: pigou" test_scale_pigou;
    case "alpha validation" test_alpha_validation;
    case "bounds: closed forms" test_bounds_values;
    case "pigou bound: closed forms" test_pigou_bound_closed_forms;
    prop_poa_below_pigou_bound;
    prop_llf_one_over_alpha;
    prop_llf_linear_bound;
    prop_ratio_at_least_one;
    prop_llf_at_least_beta_reaches_optimum;
    prop_aloof_matches_nash_cost;
    case "llf: work independent of link order" test_llf_work_order_free;
  ]
