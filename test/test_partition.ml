(* Tests for the Theorem-2.4-shaped partition heuristic on arbitrary
   latencies: exactness on the linear class, feasibility and quality
   bounds elsewhere. *)

open Helpers
module Links = Sgr_links.Links
module PH = Stackelberg.Partition_heuristic
module LE = Stackelberg.Linear_exact
module S = Stackelberg.Strategies
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance

let two_links =
  Links.make
    [| Sgr_latency.Latency.linear 1.0; Sgr_latency.Latency.affine ~slope:1.0 ~intercept:1.0 |]
    ~demand:1.0

let test_matches_linear_exact () =
  List.iter
    (fun alpha ->
      let h = PH.solve two_links ~alpha in
      let e = LE.solve two_links ~alpha in
      approx ~eps:1e-5
        (Printf.sprintf "heuristic = exact at α=%.2f" alpha)
        e.induced_cost h.induced_cost)
    [ 0.05; 0.1; 0.15; 0.2; 0.24 ]

let test_alpha_validation () =
  match PH.solve two_links ~alpha:(-0.1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative alpha rejected"

let test_feasible_on_pigou () =
  let h = PH.solve W.pigou ~alpha:0.3 in
  check_true "nonneg" (Vec.all_nonneg h.strategy);
  approx_le "budget" (Vec.sum h.strategy) (0.3 +. 1e-9);
  (* Matches the Pigou closed form ((1-α)² + α). *)
  approx ~eps:1e-5 "pigou exact" (((1.0 -. 0.3) ** 2.0) +. 0.3) h.induced_cost

let test_never_worse_than_nash () =
  let rng = Prng.create 77 in
  for _ = 1 to 20 do
    let t = W.random_polynomial_links rng ~m:(2 + Prng.int rng 4) ~demand:1.0 () in
    let nash_cost = Links.cost t (Links.nash t).assignment in
    let h = PH.solve t ~alpha:(Prng.uniform rng ~lo:0.0 ~hi:1.0) in
    approx_le "no worse than doing nothing" h.induced_cost (nash_cost +. 1e-6)
  done

let prop_matches_exact_on_linear_class =
  qcheck ~count:15 "heuristic is exact on Thm 2.4 instances" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let t = W.random_common_slope_links rng ~m:(2 + Prng.int rng 3) ~demand:1.0 () in
      let beta = Stackelberg.Optop.beta t in
      if beta < 0.05 then true
      else begin
        let alpha = Prng.uniform rng ~lo:0.02 ~hi:beta in
        let h = PH.solve t ~alpha in
        let e = LE.solve t ~alpha in
        Float.abs (h.induced_cost -. e.induced_cost) <= 1e-4 *. Float.max 1.0 e.induced_cost
      end)

let prop_feasible_and_bounded =
  qcheck ~count:25 "heuristic strategies are feasible and sane" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let t =
        match Prng.int rng 3 with
        | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 4) ~demand:1.0 ()
        | 1 -> W.random_polynomial_links rng ~m:(2 + Prng.int rng 4) ~demand:1.0 ()
        | _ -> W.random_mm1_links rng ~m:(2 + Prng.int rng 4) ~demand:1.0 ()
      in
      let alpha = Prng.uniform rng ~lo:0.0 ~hi:1.0 in
      let h = PH.solve t ~alpha in
      let opt_cost = Links.cost t (Links.opt t).assignment in
      let nash_cost = Links.cost t (Links.nash t).assignment in
      Vec.all_nonneg h.strategy
      && Vec.sum h.strategy <= (alpha *. 1.0) +. 1e-6
      && h.induced_cost >= opt_cost -. (1e-6 *. Float.max 1.0 opt_cost)
      && h.induced_cost <= nash_cost +. (1e-6 *. Float.max 1.0 nash_cost))

let prop_not_worse_than_llf_scale =
  qcheck ~count:20 "heuristic beats or ties LLF and SCALE on hard instances" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 1) in
      let t = W.random_affine_links rng ~m:(2 + Prng.int rng 3) ~demand:1.0 () in
      let beta = Stackelberg.Optop.beta t in
      if beta < 0.05 then true
      else begin
        let alpha = Prng.uniform rng ~lo:0.02 ~hi:beta in
        let h = PH.solve t ~alpha in
        let optimum = (Sgr_links.Links.opt t).assignment in
        let llf = (S.llf t ~optimum ~alpha).induced_cost in
        let scale = (S.scale t ~optimum ~alpha).induced_cost in
        h.induced_cost <= Float.min llf scale +. 1e-5
      end)

let suite =
  [
    case "matches Thm 2.4 on two links" test_matches_linear_exact;
    case "alpha validation" test_alpha_validation;
    case "pigou closed form" test_feasible_on_pigou;
    case "never worse than Nash" test_never_worse_than_nash;
    prop_matches_exact_on_linear_class;
    prop_feasible_and_bounded;
    prop_not_worse_than_llf_scale;
  ]
