(* Unit and property tests for the numerics substrate. *)

open Helpers
module Bisection = Sgr_numerics.Bisection
module Minimize = Sgr_numerics.Minimize
module Integrate = Sgr_numerics.Integrate
module Vec = Sgr_numerics.Vec
module Prng = Sgr_numerics.Prng
module Tol = Sgr_numerics.Tolerance

let test_bisection_root () =
  let x = Bisection.root ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  approx ~eps:1e-9 "sqrt 2" (Float.sqrt 2.0) x

let test_bisection_saturates_low () =
  let x = Bisection.root ~f:(fun x -> x +. 1.0) ~lo:0.0 ~hi:5.0 () in
  approx "f > 0 everywhere returns lo" 0.0 x

let test_bisection_saturates_high () =
  let x = Bisection.root ~f:(fun x -> x -. 10.0) ~lo:0.0 ~hi:5.0 () in
  approx "f < 0 everywhere returns hi" 5.0 x

let test_bisection_flat_plateau () =
  (* Nondecreasing with a flat stretch through zero: any point of the
     plateau is a valid answer. *)
  let f x = if x < 1.0 then x -. 1.0 else if x > 2.0 then x -. 2.0 else 0.0 in
  let x = Bisection.root ~f ~lo:0.0 ~hi:3.0 () in
  check_true "plateau member" (0.999 <= x && x <= 2.001)

let test_bisection_max_iter_raises () =
  (* A bracket of width 4 cannot reach tol = 0 in 10 halvings; the old
     code silently returned the midpoint as if it had converged. *)
  match Bisection.root ~tol:0.0 ~max_iter:10 ~f:(fun x -> x -. Float.sqrt 2.0) ~lo:0.0 ~hi:4.0 ()
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on max_iter exhaustion"

let test_bisection_default_budget_converges () =
  (* 200 halvings shrink any realistic bracket below solver_eps, so the
     non-convergence failure never fires with default parameters. *)
  let x = Bisection.root ~f:(fun x -> x -. 1e-7) ~lo:0.0 ~hi:1e9 () in
  approx ~eps:1e-6 "root of huge bracket" 1e-7 x

let test_bisection_bracketed_root () =
  let x = Bisection.root_bracketed ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  approx ~eps:1e-9 "sqrt 2" (Float.sqrt 2.0) x

let test_bisection_bracketed_rejects () =
  (* Unlike [root], the strict variant treats a missing sign change as a
     caller bug instead of silently clamping to an endpoint. *)
  (match Bisection.root_bracketed ~f:(fun x -> x +. 1.0) ~lo:0.0 ~hi:5.0 () with
  | exception Invalid_argument _ -> ()
  | x -> Alcotest.failf "expected Invalid_argument for f > 0 everywhere, got %g" x);
  match Bisection.root_bracketed ~f:(fun x -> x -. 10.0) ~lo:0.0 ~hi:5.0 () with
  | exception Invalid_argument _ -> ()
  | x -> Alcotest.failf "expected Invalid_argument for f < 0 everywhere, got %g" x

let test_expand_upper () =
  let hi = Bisection.expand_upper ~f:(fun x -> x *. x) ~target:1e6 () in
  check_true "reaches target" (hi *. hi >= 1e6)

let test_expand_upper_fails () =
  match Bisection.expand_upper ~f:(fun _ -> 1.0) ~target:2.0 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure for a bounded function"

let test_solve_increasing () =
  let x = Bisection.solve_increasing ~f:(fun x -> Float.exp x) ~y:5.0 ~lo:0.0 ~hi:10.0 () in
  approx ~eps:1e-9 "log 5" (Float.log 5.0) x

let test_golden_parabola () =
  let x, v = Minimize.golden ~f:(fun x -> ((x -. 3.0) ** 2.0) +. 1.0) ~lo:(-10.0) ~hi:10.0 () in
  approx ~eps:1e-5 "argmin" 3.0 x;
  approx ~eps:1e-9 "min value" 1.0 v

let test_golden_boundary () =
  let x, _ = Minimize.golden ~f:(fun x -> x) ~lo:2.0 ~hi:5.0 () in
  approx ~eps:1e-5 "monotone f minimized at lo" 2.0 x

let test_line_search_convex () =
  let x = Minimize.line_search_convex ~df:(fun x -> (2.0 *. x) -. 4.0) ~lo:0.0 ~hi:10.0 () in
  approx ~eps:1e-8 "quadratic argmin" 2.0 x

let test_simpson_cubic_exact () =
  (* Simpson is exact on cubics. *)
  let v = Integrate.adaptive_simpson ~f:(fun x -> (x ** 3.0) -. x +. 2.0) ~lo:0.0 ~hi:2.0 () in
  approx ~eps:1e-12 "cubic integral" 6.0 v

let test_simpson_exp () =
  let v = Integrate.adaptive_simpson ~f:Float.exp ~lo:0.0 ~hi:1.0 () in
  approx ~eps:1e-10 "exp integral" (Float.exp 1.0 -. 1.0) v

let test_simpson_empty () =
  approx "zero-width interval" 0.0 (Integrate.adaptive_simpson ~f:Float.exp ~lo:1.0 ~hi:1.0 ())

let test_kahan_sum () =
  (* 1 + 1e-16 added 1e5 times loses everything under naive summation. *)
  let v = Array.make 100_001 1e-16 in
  v.(0) <- 1.0;
  approx ~eps:1e-12 "compensated sum" (1.0 +. 1e-11) (Vec.sum v)

let test_vec_basics () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  approx_array "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  approx_array "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a);
  approx "linf" 3.0 (Vec.linf_dist a b);
  Alcotest.(check int) "argmin" 0 (Vec.argmin a);
  let y = Array.copy b in
  Vec.axpy 2.0 a y;
  approx_array "axpy" [| 6.0; 9.0; 12.0 |] y

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let x = Prng.float g in
    check_true "in [0,1)" (0.0 <= x && x < 1.0);
    let k = Prng.int g 7 in
    check_true "int in range" (0 <= k && k < 7)
  done

let test_prng_split_independent () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  let x = Prng.float g and y = Prng.float h in
  check_true "streams differ" (x <> y)

let test_tolerance () =
  check_true "approx" (Tol.approx 1.0 (1.0 +. 1e-9));
  check_true "not approx" (not (Tol.approx 1.0 1.1));
  check_true "approx relative at scale" (Tol.approx 1e12 (1e12 +. 1.0));
  approx "clamp" 2.0 (Tol.clamp ~lo:0.0 ~hi:2.0 5.0);
  approx "clamp_nonneg" 0.0 (Tol.clamp_nonneg (-1e-15))

let prop_bisection_inverts_monotone =
  qcheck "bisection inverts random increasing cubics"
    QCheck.(triple (float_bound_exclusive 5.0) (float_bound_exclusive 5.0) pos_float)
    (fun (a, b, yraw) ->
      let a = Float.abs a +. 0.1 and b = Float.abs b in
      let y = Float.min 1e6 yraw in
      let f x = (a *. (x ** 3.0)) +. (b *. x) in
      let hi = Bisection.expand_upper ~f ~target:y () in
      let x = Bisection.solve_increasing ~f ~y ~lo:0.0 ~hi () in
      Float.abs (f x -. y) <= 1e-6 *. Float.max 1.0 y)

let prop_golden_beats_grid =
  qcheck "golden finds minimum of random shifted parabola"
    QCheck.(pair (float_bound_exclusive 10.0) (float_bound_exclusive 10.0))
    (fun (c, s) ->
      let f x = ((x -. c) ** 2.0) +. s in
      let x, _ = Minimize.golden ~f ~lo:(-20.0) ~hi:20.0 () in
      Float.abs (x -. c) <= 1e-4)

let suite =
  [
    case "bisection: root of x^2-2" test_bisection_root;
    case "bisection: saturates at lo" test_bisection_saturates_low;
    case "bisection: saturates at hi" test_bisection_saturates_high;
    case "bisection: flat plateau" test_bisection_flat_plateau;
    case "bisection: max_iter exhaustion raises" test_bisection_max_iter_raises;
    case "bisection: default budget converges" test_bisection_default_budget_converges;
    case "bisection: root_bracketed converges" test_bisection_bracketed_root;
    case "bisection: root_bracketed rejects unbracketed" test_bisection_bracketed_rejects;
    case "bisection: bracket expansion" test_expand_upper;
    case "bisection: expansion failure on bounded f" test_expand_upper_fails;
    case "bisection: solve_increasing" test_solve_increasing;
    case "golden: parabola" test_golden_parabola;
    case "golden: boundary minimum" test_golden_boundary;
    case "line search: convex quadratic" test_line_search_convex;
    case "simpson: exact on cubics" test_simpson_cubic_exact;
    case "simpson: exp" test_simpson_exp;
    case "simpson: empty interval" test_simpson_empty;
    case "vec: kahan summation" test_kahan_sum;
    case "vec: basics" test_vec_basics;
    case "prng: deterministic" test_prng_deterministic;
    case "prng: ranges" test_prng_range;
    case "prng: split independence" test_prng_split_independent;
    case "tolerance: comparisons" test_tolerance;
    prop_bisection_inverts_monotone;
    prop_golden_beats_grid;
  ]
