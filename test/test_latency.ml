(* Unit and property tests for latency functions: closed forms vs
   numerical derivatives/integrals, inverses, shifting, classification. *)

open Helpers
module L = Sgr_latency.Latency
module Integrate = Sgr_numerics.Integrate
module Prng = Sgr_numerics.Prng

let numeric_deriv f x =
  let h = 1e-6 *. Float.max 1.0 (Float.abs x) in
  (f (x +. h) -. f (Float.max 0.0 (x -. h))) /. (x +. h -. Float.max 0.0 (x -. h))

let check_consistency ?(hi = 3.0) name lat =
  (* Closed-form derivatives and primitive must match numerical ones. *)
  List.iter
    (fun x ->
      approx ~eps:1e-4 (name ^ ": deriv at " ^ string_of_float x)
        (numeric_deriv (L.eval lat) x) (L.deriv lat x);
      approx ~eps:1e-4 (name ^ ": deriv2 at " ^ string_of_float x)
        (numeric_deriv (L.deriv lat) x) (L.deriv2 lat x);
      approx ~eps:1e-8 (name ^ ": primitive at " ^ string_of_float x)
        (Integrate.adaptive_simpson ~f:(L.eval lat) ~lo:0.0 ~hi:x ())
        (L.primitive lat x))
    [ 0.1; 0.5; 1.0; hi ]

let test_constant () =
  let c = L.constant 0.7 in
  approx "eval" 0.7 (L.eval c 3.0);
  approx "deriv" 0.0 (L.deriv c 3.0);
  approx "primitive" 2.1 (L.primitive c 3.0);
  approx "marginal" 0.7 (L.marginal c 3.0);
  check_true "is_constant" (L.is_constant c);
  Alcotest.(check (option (float 1e-12))) "constant_value" (Some 0.7) (L.constant_value c)

let test_affine () =
  let l = L.affine ~slope:2.5 ~intercept:(1.0 /. 6.0) in
  approx "eval" (2.5 +. (1.0 /. 6.0)) (L.eval l 1.0);
  approx "marginal" (5.0 +. (1.0 /. 6.0)) (L.marginal l 1.0);
  check_consistency "affine" l;
  check_true "not constant" (not (L.is_constant l));
  (* Zero slope degrades to a constant. *)
  check_true "zero slope constant" (L.is_constant (L.affine ~slope:0.0 ~intercept:1.0))

let test_affine_negative_rejected () =
  match L.affine ~slope:(-1.0) ~intercept:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative slope must be rejected"

(* Every closed-form constructor and both shifts refuse nan and ±inf in
   any parameter, by name, as they refuse a negative one; with every
   parameter finite and in range they build. nan passed the old sign
   guards: [affine ~slope:nan] built a latency whose value is nan. *)
let prop_non_finite_parameters_refused =
  let base = L.linear 1.0 in
  let constructors =
    [
      ("constant", 1, fun p -> L.constant p.(0));
      ("affine", 2, fun p -> L.affine ~slope:p.(0) ~intercept:p.(1));
      ("polynomial", 3, fun p -> L.polynomial p);
      ("monomial", 1, fun p -> L.monomial ~coeff:p.(0) ~degree:3);
      ("mm1", 1, fun p -> L.mm1 ~capacity:p.(0));
      ( "bpr",
        4,
        fun p -> L.bpr ~free_flow:p.(0) ~capacity:p.(1) ~alpha:p.(2) ~beta:(1.0 +. p.(3)) () );
      ("shift", 1, fun p -> L.shift p.(0) base);
      ("shift_intercept", 1, fun p -> L.shift_intercept p.(0) base);
    ]
  in
  qcheck ~count:300 "constructors refuse non-finite parameters by name" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 2_600) in
      let name, arity, build = List.nth constructors (Prng.int rng (List.length constructors)) in
      let params = Array.init arity (fun _ -> 0.25 +. Prng.float rng) in
      let builds = match build params with _ -> true | exception Invalid_argument _ -> false in
      let bad = [| Float.nan; Float.infinity; Float.neg_infinity |].(Prng.int rng 3) in
      params.(Prng.int rng arity) <- bad;
      let prefix = "Latency." ^ name ^ ": non-finite " in
      builds
      &&
      match build params with
      | exception Invalid_argument m ->
          String.length m > String.length prefix
          && String.equal (String.sub m 0 (String.length prefix)) prefix
      | _ -> false)

let test_polynomial () =
  let p = L.polynomial [| 1.0; 0.0; 3.0 |] in
  (* 1 + 3x^2 *)
  approx "eval" 13.0 (L.eval p 2.0);
  approx "deriv" 12.0 (L.deriv p 2.0);
  approx "primitive" (2.0 +. 8.0) (L.primitive p 2.0);
  approx "marginal" (13.0 +. 24.0) (L.marginal p 2.0);
  check_consistency "polynomial" p;
  check_true "constant poly detected" (L.is_constant (L.polynomial [| 2.0 |]));
  check_true "constant poly w/ zero high coeffs" (L.is_constant (L.polynomial [| 2.0; 0.0 |]))

let test_polynomial_negative_rejected () =
  match L.polynomial [| 1.0; -2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative coefficient must be rejected"

let test_monomial () =
  let m = L.monomial ~coeff:2.0 ~degree:3 in
  approx "eval" 16.0 (L.eval m 2.0);
  approx "deriv" 24.0 (L.deriv m 2.0)

let test_mm1 () =
  let q = L.mm1 ~capacity:2.0 in
  approx "eval" 1.0 (L.eval q 1.0);
  approx "deriv" 1.0 (L.deriv q 1.0);
  approx "primitive" (Float.log 2.0) (L.primitive q 1.0);
  check_consistency ~hi:1.5 "mm1" q;
  check_true "saturation" (L.eval q 2.5 = Float.infinity)

let test_bpr () =
  let b = L.bpr ~free_flow:1.0 ~capacity:2.0 () in
  approx "free-flow delay" 1.0 (L.eval b 0.0);
  approx "at capacity" 1.15 (L.eval b 2.0);
  check_consistency "bpr" b

let test_bpr_constant () =
  (* t₀·(1 + α(x/k)^β) is the constant t₀ when α = 0 or t₀ = 0. *)
  List.iter
    (fun (name, lat, c) ->
      Alcotest.(check (option (float 0.0))) (name ^ ": constant_value") (Some c) (L.constant_value lat);
      approx (name ^ ": eval") c (L.eval lat 2.0);
      match L.inverse lat (c +. 1.0) with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%s: inverse of a constant must fail" name)
    [
      ("alpha = 0", L.bpr ~free_flow:1.0 ~capacity:1.0 ~alpha:0.0 ~beta:4.0 (), 1.0);
      ("t0 = 0", L.bpr ~free_flow:0.0 ~capacity:2.0 (), 0.0);
      ("shifted, alpha = 0", L.shift 0.5 (L.bpr ~free_flow:2.0 ~capacity:1.0 ~alpha:0.0 ()), 2.0);
    ];
  check_true "alpha > 0 is not constant" (not (L.is_constant (L.bpr ~free_flow:1.0 ~capacity:1.0 ())))

let test_custom_numeric_fallbacks () =
  let c = L.custom ~eval:(fun x -> Float.exp x -. 1.0 +. 0.5) () in
  approx ~eps:1e-4 "numeric deriv" (Float.exp 1.0) (L.deriv c 1.0);
  approx ~eps:1e-3 "numeric deriv2" (Float.exp 1.0) (L.deriv2 c 1.0);
  approx ~eps:1e-8 "numeric primitive" (Float.exp 1.0 -. 1.0 -. 1.0 +. 0.5) (L.primitive c 1.0)

let test_shift () =
  let l = L.affine ~slope:2.0 ~intercept:1.0 in
  let s = L.shift 0.5 l in
  approx "shifted eval" (L.eval l 1.5) (L.eval s 1.0);
  approx "shifted deriv" 2.0 (L.deriv s 1.0);
  (* Primitive of shifted: ∫0^x ℓ(s+u)du = F(s+x) - F(s). *)
  approx "shifted primitive" (L.primitive l 1.5 -. L.primitive l 0.5) (L.primitive s 1.0);
  check_true "zero shift is identity" (L.shift 0.0 l == l);
  check_true "shifted constant stays constant" (L.is_constant (L.shift 1.0 (L.constant 2.0)))

let test_inverse_affine () =
  let l = L.affine ~slope:2.0 ~intercept:1.0 in
  approx "inverse" 2.0 (L.inverse l 5.0);
  approx "inverse below intercept" 0.0 (L.inverse l 0.5);
  approx "inverse_marginal" 1.0 (L.inverse_marginal l 5.0)

let test_inverse_shifted_affine () =
  let s = L.shift 0.5 (L.affine ~slope:2.0 ~intercept:1.0) in
  (* ℓ(0.5+x) = 2x + 2; inverse of 4 is 1. *)
  approx "inverse" 1.0 (L.inverse s 4.0);
  approx "inverse saturates at 0" 0.0 (L.inverse s 1.0)

let test_inverse_mm1 () =
  let q = L.mm1 ~capacity:2.0 in
  approx "inverse" 1.0 (L.inverse q 1.0);
  approx "inverse below idle delay" 0.0 (L.inverse q 0.25);
  let s = L.shift 0.5 q in
  approx "shifted inverse" 0.5 (L.inverse s 1.0)

let test_inverse_closed_forms () =
  (* 1 + 2x³: Nash inverse of 17 is 2; marginal 1 + 8x³ = 65 at x = 2. *)
  let p = L.polynomial [| 1.0; 0.0; 0.0; 2.0 |] in
  approx "polynomial inverse" 2.0 (L.inverse p 17.0);
  approx "polynomial inverse_marginal" 2.0 (L.inverse_marginal p 65.0);
  approx "polynomial inverse below intercept" 0.0 (L.inverse p 0.5);
  approx "shifted polynomial inverse" 1.5 (L.inverse (L.shift 0.5 p) 17.0);
  (* BPR 2(1 + 0.5(x/2)²): ℓ(4) = 6 and marginal(4) = 2 + 3·(x/2)² = 14. *)
  let b = L.bpr ~free_flow:2.0 ~capacity:2.0 ~alpha:0.5 ~beta:2.0 () in
  approx "bpr inverse" 4.0 (L.inverse b 6.0);
  approx "bpr inverse_marginal" 4.0 (L.inverse_marginal b 14.0);
  approx "shifted bpr inverse" 3.0 (L.inverse (L.shift 1.0 b) 6.0);
  (* M/M/1 marginal c/(c - x)²: 2/(2 - 1)² = 2, and shifted by 0.5,
     1.5/(1.5 - 1)² = 6. *)
  let q = L.mm1 ~capacity:2.0 in
  approx "mm1 inverse_marginal" 1.0 (L.inverse_marginal q 2.0);
  approx "shifted mm1 inverse_marginal" 1.0 (L.inverse_marginal (L.shift 0.5 q) 6.0)

let test_inverse_constant_fails () =
  match L.inverse (L.constant 1.0) 2.0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "inverse of constant must fail"

let test_pp () =
  check_true "affine rendering"
    (String.length (L.to_string (L.affine ~slope:2.5 ~intercept:0.1667)) > 0);
  check_true "poly rendering" (String.length (L.to_string (L.polynomial [| 1.0; 0.0; 2.0 |])) > 0)

let random_latency rng =
  match Prng.int rng 4 with
  | 0 -> L.affine ~slope:(Prng.uniform rng ~lo:0.1 ~hi:3.0) ~intercept:(Prng.uniform rng ~lo:0.0 ~hi:2.0)
  | 1 ->
      let d = 1 + Prng.int rng 3 in
      L.monomial ~coeff:(Prng.uniform rng ~lo:0.1 ~hi:2.0) ~degree:d
  | 2 -> L.bpr ~free_flow:(Prng.uniform rng ~lo:0.5 ~hi:2.0) ~capacity:(Prng.uniform rng ~lo:0.5 ~hi:2.0) ()
  | _ -> L.mm1 ~capacity:(Prng.uniform rng ~lo:2.0 ~hi:4.0)

let prop_inverse_roundtrip =
  qcheck "inverse ∘ eval is the identity above ℓ(0)" QCheck.(pair small_nat (float_bound_exclusive 1.5))
    (fun (seed, xraw) ->
      let rng = Prng.create (seed + 1) in
      let lat = random_latency rng in
      let x = Float.abs xraw +. 0.01 in
      let y = L.eval lat x in
      y = Float.infinity || Float.abs (L.inverse lat y -. x) <= 1e-6 *. Float.max 1.0 x)

let prop_marginal_ge_latency =
  qcheck "marginal cost dominates latency" QCheck.(pair small_nat (float_bound_exclusive 1.5))
    (fun (seed, xraw) ->
      let rng = Prng.create (seed + 1) in
      let lat = random_latency rng in
      let x = Float.abs xraw in
      let m = L.marginal lat x and v = L.eval lat x in
      m = Float.infinity || m >= v -. 1e-9)

let prop_primitive_matches_quadrature =
  qcheck "closed-form primitive matches quadrature" QCheck.(pair small_nat (float_bound_exclusive 1.5))
    (fun (seed, xraw) ->
      let rng = Prng.create (seed + 1) in
      let lat = random_latency rng in
      let x = Float.abs xraw in
      let p = L.primitive lat x in
      p = Float.infinity
      || Float.abs (p -. Integrate.adaptive_simpson ~f:(L.eval lat) ~lo:0.0 ~hi:x ())
         <= 1e-7 *. Float.max 1.0 p)

(* One property per kind with a closed-form inverse: the closed forms
   of the plain and the shifted curve, Nash and optimum, against the
   bisection reference at a level 0.01 to 2 above the curve's value at
   zero flow, and at one below it. (Closer to that value the inverse of
   a high power is ill-conditioned: one ulp of the level moves the flow
   by more than 1e-9, in both inverses.) *)
let prop_inverse_matches_reference name make =
  qcheck ("closed-form inverse ≍ bisection reference: " ^ name) QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let base = make rng in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      List.for_all
        (fun lat ->
          List.for_all
            (fun (criterion, closed, value) ->
              let y = value lat 0.0 +. Prng.uniform rng ~lo:0.01 ~hi:2.0 in
              let below = 0.5 *. value lat 0.0 in
              close (closed lat y) (L.reference_inverse criterion lat y)
              && close (closed lat below) 0.0)
            [ (`Nash, L.inverse, L.eval); (`Opt, L.inverse_marginal, L.marginal) ])
        [ base; L.shift (Prng.uniform rng ~lo:0.0 ~hi:0.5) base ])

let inverse_properties =
  [
    prop_inverse_matches_reference "affine" (fun rng ->
        L.affine ~slope:(Prng.uniform rng ~lo:0.1 ~hi:3.0)
          ~intercept:(Prng.uniform rng ~lo:0.0 ~hi:2.0));
    prop_inverse_matches_reference "b + c·x^d" (fun rng ->
        let d = 1 + Prng.int rng 6 in
        let coeffs = Array.make (d + 1) 0.0 in
        coeffs.(0) <- Prng.uniform rng ~lo:0.0 ~hi:2.0;
        coeffs.(d) <- Prng.uniform rng ~lo:0.1 ~hi:3.0;
        L.polynomial coeffs);
    prop_inverse_matches_reference "bpr" (fun rng ->
        L.bpr
          ~free_flow:(Prng.uniform rng ~lo:0.2 ~hi:2.0)
          ~capacity:(Prng.uniform rng ~lo:0.5 ~hi:3.0)
          ~alpha:(Prng.uniform rng ~lo:0.05 ~hi:1.0)
          ~beta:(Prng.uniform rng ~lo:1.0 ~hi:6.0)
          ());
    prop_inverse_matches_reference "mm1" (fun rng ->
        L.mm1 ~capacity:(Prng.uniform rng ~lo:2.0 ~hi:4.0));
  ]

(* ---------------- array kernels ---------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let evaluations () = Sgr_obs.Obs.value (Sgr_obs.Obs.counter "latency.evaluations")

(* One latency of every kind a kernel entry can be, with the corners
   the kernels must reproduce: BPR with α = 0 and with t₀ = 0, M/M/1 loaded at or past
   capacity (x up to 4.5 > 4, and x = ∞, where 0·x is NaN), single and
   nested shifts, tolled kinds (constant-shifted polynomials, Custom
   wrappers) and a bare Custom. *)
let every_kind rng =
  let u lo hi = Prng.uniform rng ~lo ~hi in
  let closed =
    [
      L.constant (u 0.0 2.0);
      L.affine ~slope:(u 0.01 3.0) ~intercept:(u 0.0 2.0);
      L.polynomial (Array.init (2 + Prng.int rng 4) (fun _ -> u 0.0 2.0));
      L.mm1 ~capacity:(u 0.5 4.0);
      L.bpr ~free_flow:(u 0.1 2.0) ~capacity:(u 0.5 3.0) ~alpha:(u 0.0 1.0) ~beta:(u 1.0 6.0) ();
      L.bpr ~free_flow:(u 0.1 2.0) ~capacity:(u 0.5 3.0) ~alpha:0.0 ();
      L.bpr ~free_flow:0.0 ~capacity:(u 0.5 3.0) ();
      L.monomial ~coeff:(u 0.1 2.0) ~degree:(Prng.int rng 4);
    ]
  in
  let pick () = List.nth closed (Prng.int rng (List.length closed)) in
  closed
  @ [
      L.shift (u 0.0 1.0) (pick ());
      L.shift (u 0.0 1.0) (L.shift (u 0.0 1.0) (pick ()));
      L.shift_intercept (u 0.0 1.0) (pick ());
      L.custom ~eval:(fun x -> 1.0 +. (x *. x)) ();
    ]

let prop_table_kernels_bitwise =
  qcheck ~count:300 "table kernels equal eval/marginal bit for bit, counted once each"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 4_100) in
      let lats = Array.of_list (every_kind rng) in
      Prng.shuffle rng lats;
      let n = Array.length lats in
      let at =
        Array.init n (fun _ ->
            match Prng.int rng 10 with
            | 0 | 1 -> 0.0
            | 2 -> Float.infinity
            | _ -> Prng.uniform rng ~lo:0.0 ~hi:4.5)
      in
      let into = Array.make n Float.nan in
      let len = Prng.int rng (n + 1) in
      let entries = Array.init len (fun _ -> Prng.int rng n) in
      let dirs = Array.init len (fun _ -> Prng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let gamma = Prng.uniform rng ~lo:0.0 ~hi:1.0 in
      List.for_all
           (fun (marginal, value) ->
             let e0 = evaluations () in
             L.Kernels.fill lats ~marginal ~at ~into;
             let e1 = evaluations () in
             let d = L.Kernels.directional lats ~marginal ~base:at ~entries ~dirs ~len gamma in
             let e2 = evaluations () in
             let reference = ref 0.0 in
             for k = 0 to len - 1 do
               let i = entries.(k) and dk = dirs.(k) in
               reference := !reference +. (dk *. value lats.(i) (at.(i) +. (gamma *. dk)))
             done;
             e1 - e0 = n
             && e2 - e1 = len
             && Array.for_all Fun.id
                  (Array.mapi (fun i l -> same_bits into.(i) (value l at.(i))) lats)
             && same_bits d !reference)
           [ (false, L.eval); (true, L.marginal) ])

(* The index-list fill against the whole one: the first [len] listed
   entries (some listed twice, as a random draw lists them) get
   [fill]'s bits, every other entry keeps its own, and the call counts
   [len] evaluations. The list is longer than [len], as the solver's
   support buffer is. A call with [at] or [into] too short, or [len]
   outside the list, is refused before it writes or counts anything. *)
let prop_fill_entries_bitwise =
  qcheck ~count:300 "index-list fill equals fill bit for bit on its entries, counted once each"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 4_300) in
      let lats = Array.of_list (every_kind rng) in
      Prng.shuffle rng lats;
      let n = Array.length lats in
      let at =
        Array.init n (fun _ ->
            match Prng.int rng 10 with
            | 0 | 1 -> 0.0
            | 2 -> Float.infinity
            | _ -> Prng.uniform rng ~lo:0.0 ~hi:4.5)
      in
      let len = Prng.int rng (n + 1) in
      let entries = Array.init n (fun _ -> Prng.int rng n) in
      let listed = Array.make n false in
      for k = 0 to len - 1 do
        listed.(entries.(k)) <- true
      done;
      let before = Array.init n (fun i -> -.float_of_int (i + 1)) in
      let refused ~at ~entries ~len ~into =
        let kept = Array.copy into and e0 = evaluations () in
        match L.Kernels.fill_entries lats ~marginal:false ~at ~entries ~len ~into with
        | exception Invalid_argument _ ->
            evaluations () = e0 && Array.for_all2 same_bits into kept
        | () -> false
      in
      let short a = Array.sub a 0 (n - 1) in
      List.for_all
        (fun marginal ->
          let whole = Array.make n Float.nan in
          L.Kernels.fill lats ~marginal ~at ~into:whole;
          let into = Array.copy before in
          let e0 = evaluations () in
          L.Kernels.fill_entries lats ~marginal ~at ~entries ~len ~into;
          evaluations () - e0 = len
          && Array.for_all Fun.id
               (Array.init n (fun i ->
                    same_bits into.(i) (if listed.(i) then whole.(i) else before.(i)))))
        [ false; true ]
      && refused ~at:(short at) ~entries ~len ~into:(Array.copy before)
      && refused ~at ~entries ~len ~into:(short before)
      && refused ~at ~entries:(Array.sub entries 0 len) ~len:(len + 1) ~into:(Array.copy before)
      && refused ~at ~entries ~len:(-1) ~into:(Array.copy before))

(* The level kernels against the scalar functions: entry i of the
   kernels at [offsets] is [shift offsets.(i) lats.(i)], so its flow at
   a level is [inverse] (or [inverse_marginal]) of that latency floored
   at 0, its rate 1/ℓ' (or 1/(2ℓ' + xℓ'')) from its [deriv] and
   [deriv2], and its activation point its value at zero flow. Offsets
   are 0, random, and for M/M/1 below, at and past the capacity; the
   bases include b + c·xᵈ, multi-term polynomials, constants, BPR with
   α = 0 and t₀ = 0, pre-shifted and nested-shifted latencies, tolled
   kinds and [Custom]. A level where some entry's inverse fails must
   fail the kernel too. *)
let prop_level_kernels_bitwise =
  qcheck ~count:300 "level tables: flows, rates and activations equal the scalar path bit for bit"
    QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Prng.create (seed + 4_300) in
      let u lo hi = Prng.uniform rng ~lo ~hi in
      let power () =
        let d = 1 + Prng.int rng 4 in
        L.polynomial
          (Array.init (d + 1) (fun i -> if i = 0 then u 0.0 1.0 else if i = d then u 0.5 2.0 else 0.0))
      in
      let cubic =
        L.custom ~eval:(fun x -> 1.0 +. x +. (x *. x *. x)) ~deriv:(fun x -> 1.0 +. (3.0 *. x *. x)) ()
      in
      let lats = Array.of_list (power () :: power () :: cubic :: every_kind rng) in
      Prng.shuffle rng lats;
      let n = Array.length lats in
      let offsets =
        Array.map
          (fun l ->
            match (Prng.int rng 3, L.kind l) with
            | 0, _ -> 0.0
            | _, L.Mm1 { capacity } -> (
                match Prng.int rng 3 with
                | 0 -> u 0.0 capacity
                | 1 -> capacity
                | _ -> capacity +. u 0.0 1.0)
            | _ -> u 0.0 1.5)
          lats
      in
      let shifted = Array.mapi (fun i l -> L.shift offsets.(i) l) lats in
      let rigid i = not (L.is_constant shifted.(i)) in
      let x = Array.init n (fun i -> if rigid i && Prng.int rng 4 > 0 then u 0.0 2.0 else 0.0) in
      let levels = 0.0 :: List.init 6 (fun _ -> u 0.0 6.0) in
      let counted f =
        let e0 = evaluations () in
        let r = match f () with v -> Ok v | exception Failure _ -> Error () in
        (r, evaluations () - e0)
      in
      List.for_all
        (fun marginal ->
          let value, inverse =
            if marginal then (L.marginal, L.inverse_marginal) else (L.eval, L.inverse)
          in
          let slope l x =
            if marginal then (2.0 *. L.deriv l x) +. if x > 0.0 then x *. L.deriv2 l x else 0.0
            else L.deriv l x
          in
          let g0 = Array.make n Float.nan and want_g0 = Array.make n Float.nan in
          let (_ : (unit, unit) result), kernel_evals =
            let lines = Array.make n Float.nan in
            counted (fun () -> L.Kernels.activations lats ~offsets ~marginal ~lines ~into:g0)
          in
          let (_ : (unit, unit) result), scalar_evals =
            counted (fun () ->
                Array.iteri
                  (fun i l ->
                    want_g0.(i) <- (match L.constant_value l with Some k -> k | None -> value l 0.0))
                  shifted)
          in
          let activations_ok =
            kernel_evals = scalar_evals && Array.for_all2 same_bits g0 want_g0
          in
          let flows_ok y =
            let into = Array.make n Float.nan and want = Array.make n Float.nan in
            let got, kernel_evals =
              counted (fun () -> L.Kernels.flows lats ~offsets ~marginal y ~into)
            in
            let sum, scalar_evals =
              counted (fun () ->
                  let sum = ref 0.0 in
                  for i = 0 to n - 1 do
                    if rigid i then begin
                      want.(i) <- Float.max 0.0 (inverse shifted.(i) y);
                      sum := !sum +. want.(i)
                    end
                  done;
                  !sum)
            in
            kernel_evals = scalar_evals
            &&
            match (got, sum) with
            | Ok a, Ok b -> same_bits a b && Array.for_all2 same_bits into want
            | Error (), Error () -> true
            | _ -> false
          in
          let w = Array.make n Float.nan in
          let rate = L.Kernels.rates lats ~offsets ~marginal x ~into:w in
          let want_w = Array.mapi (fun i l -> if x.(i) > 0.0 then 1.0 /. slope l x.(i) else 0.0) shifted in
          let want_rate = ref 0.0 in
          Array.iteri (fun i wi -> if x.(i) > 0.0 then want_rate := !want_rate +. wi) want_w;
          let rates_ok =
            same_bits rate !want_rate
            && Array.for_all2 same_bits w want_w
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun i l ->
                      same_bits (L.Kernels.rate lats ~offsets ~marginal i 0.0) (1.0 /. slope l 0.0))
                    shifted)
          in
          Array.for_all Fun.id (Array.init n (fun i -> (not (L.is_constant lats.(i))) = rigid i))
          && activations_ok && List.for_all flows_ok levels && rates_ok)
        [ false; true ])

let test_table_kernels_allocate_nothing () =
  let rng = Prng.create 4_200 in
  let lats =
    Array.init 64 (fun i ->
        match i mod 5 with
        | 0 -> L.constant 1.0
        | 1 -> L.affine ~slope:0.5 ~intercept:1.0
        | 2 -> L.polynomial [| 1.0; 0.5; 0.25 |]
        | 3 -> L.mm1 ~capacity:5.0
        | _ -> L.bpr ~free_flow:1.0 ~capacity:2.0 ())
  in
  let at = Array.init 64 (fun _ -> Prng.uniform rng ~lo:0.0 ~hi:4.0) in
  let into = Array.make 64 0.0 in
  let entries = Array.init 64 Fun.id in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    L.Kernels.fill lats ~marginal:false ~at ~into;
    L.Kernels.fill lats ~marginal:true ~at ~into;
    ignore
      (Sys.opaque_identity
         (L.Kernels.directional lats ~marginal:true ~base:at ~entries ~dirs:at ~len:64 0.5))
  done;
  (* The one boxed result of [directional] per call: 2 words each. *)
  let words = Gc.minor_words () -. w0 in
  if words > 40.0 then Alcotest.failf "closed-form kernels allocated %.0f words" words

(* The gathered line a Frank–Wolfe line search probes: its slope at γ is
   [directional]'s float, on all-affine supports (the contiguous loop)
   and on mixed ones (every kind), with one line reused across supports
   of changing length, and counts [len] evaluations per probe. *)
let prop_gathered_line_bitwise =
  qcheck ~count:300 "gathered line slopes equal directional bit for bit, counted once each"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 4_300) in
      let lats =
        if Prng.bool rng then Array.of_list (every_kind rng)
        else
          Array.init (1 + Prng.int rng 12) (fun _ ->
              L.affine ~slope:(Prng.uniform rng ~lo:0.1 ~hi:3.0) ~intercept:(Prng.float rng))
      in
      let n = Array.length lats in
      let line = L.Kernels.line lats in
      let base = Array.init n (fun _ -> Prng.uniform rng ~lo:0.0 ~hi:4.5) in
      List.for_all
        (fun _ ->
          let len = Prng.int rng (n + 1) in
          let entries = Array.init len (fun _ -> Prng.int rng n) in
          let dirs = Array.init len (fun _ -> Prng.uniform rng ~lo:(-1.0) ~hi:1.0) in
          let marginal = Prng.bool rng in
          L.Kernels.gather line ~marginal ~base ~entries ~dirs ~len;
          List.for_all
            (fun gamma ->
              let e0 = evaluations () in
              let slope = L.Kernels.slope_at line gamma in
              let e1 = evaluations () in
              e1 - e0 = len
              && same_bits slope
                   (L.Kernels.directional lats ~marginal ~base ~entries ~dirs ~len gamma))
            [ 0.0; Prng.float rng; 1.0 ])
        (List.init 4 Fun.id))

(* ---------------- certified line search ---------------- *)

let full_sums () = Sgr_obs.Obs.value (Sgr_obs.Obs.counter "latency.full_sum_probes")

(* The model [gather] documents, summed in its order: A = Σ d·(m·a·p +
   c), B = Σ m·a·d² and T = Σ |d|·(m·a·|p| + c). *)
let line_model ~marginal lats ~base ~entries ~dirs ~len =
  let a_sum = ref 0.0 and b_sum = ref 0.0 and t_sum = ref 0.0 in
  for k = 0 to len - 1 do
    let i = entries.(k) and d = dirs.(k) in
    match L.kind lats.(i) with
    | L.Affine { slope; intercept } ->
        let ma = if marginal then slope +. slope else slope in
        let p = base.(i) in
        a_sum := !a_sum +. (d *. ((ma *. p) +. intercept));
        b_sum := !b_sum +. (ma *. d *. d);
        t_sum := !t_sum +. (Float.abs d *. ((ma *. Float.abs p) +. intercept))
    | _ -> invalid_arg "line_model: not an affine line"
  done;
  (!a_sum, !b_sum, !t_sum)

(* A random all-affine line of 1 to 10^4 entries, in shuffled edge
   order, with directions of both signs. Either random floats, or small
   integers with a last entry whose intercept puts the root at a chosen
   γ*: 0, 1 or a bisection midpoint k/2^j of [0, 1], where the line is
   exact in floating point, so that at γ* the model and the full sum
   are both 0; or a midpoint on a line with pairs of opposite terms
   near 2^40, where A + γB cancels far below T and the full sum's
   rounding decides the sign near the root. *)
let random_line rng ~marginal =
  let len = 1 + Prng.int rng [| 8; 64; 600; 10_000 |].(Prng.int rng 4) in
  let m = if marginal then 2.0 else 1.0 in
  let small lo hi = float_of_int (lo + Prng.int rng (hi - lo + 1)) in
  let sign () = if Prng.bool rng then 1.0 else -1.0 in
  let slopes = Array.make len 1.0 and intercepts = Array.make len 0.0 in
  let base = Array.make len 0.0 and dirs = Array.make len 1.0 in
  let shape = Prng.int rng 5 in
  if shape = 0 then
    for k = 0 to len - 1 do
      slopes.(k) <- Prng.uniform rng ~lo:0.01 ~hi:3.0;
      intercepts.(k) <- Prng.uniform rng ~lo:0.0 ~hi:2.0;
      base.(k) <- Prng.uniform rng ~lo:0.0 ~hi:100.0;
      dirs.(k) <- Prng.uniform rng ~lo:(-50.0) ~hi:50.0
    done
  else begin
    for k = 0 to len - 2 do
      slopes.(k) <- small 1 4;
      intercepts.(k) <- small 0 4;
      base.(k) <- small 0 8;
      dirs.(k) <- sign () *. small 1 3
    done;
    if shape = 4 then
      (* Up to three pairs of opposite terms near 2^40, at bases that
         differ: each term rounds by about 2^-13, far more than the
         slope near its root. *)
      for pair = 0 to Int.min 3 ((len - 1) / 2) - 1 do
        let c = Prng.uniform rng ~lo:0x1p40 ~hi:0x1p41 in
        intercepts.(2 * pair) <- c;
        intercepts.((2 * pair) + 1) <- c;
        slopes.((2 * pair) + 1) <- slopes.(2 * pair);
        base.(2 * pair) <- Prng.uniform rng ~lo:0.0 ~hi:8.0;
        base.((2 * pair) + 1) <- Prng.uniform rng ~lo:0.0 ~hi:8.0;
        dirs.((2 * pair) + 1) <- -.dirs.(2 * pair)
      done;
    let root =
      match shape with
      | 1 -> 0.0
      | 2 -> 1.0
      | _ ->
          let j = 1 + Prng.int rng 10 in
          float_of_int (1 + (2 * Prng.int rng (1 lsl (j - 1)))) /. float_of_int (1 lsl j)
    in
    (* The last entry (slope 1, base 0, direction ±1) adds s·c + γ·m
       to A + γB: choose c >= 0 and s to make it vanish at the root. *)
    let a = ref 0.0 and b = ref m in
    for k = 0 to len - 2 do
      a := !a +. (dirs.(k) *. ((m *. slopes.(k) *. base.(k)) +. intercepts.(k)));
      b := !b +. (m *. slopes.(k) *. dirs.(k) *. dirs.(k))
    done;
    let rest = !a +. (root *. !b) in
    intercepts.(len - 1) <- Float.abs rest;
    dirs.(len - 1) <- (if rest > 0.0 then -1.0 else 1.0)
  end;
  (* Entry k of the line is edge [entries.(k)]. *)
  let entries = Array.init len Fun.id in
  Prng.shuffle rng entries;
  let by_edge a =
    let out = Array.make len 0.0 in
    Array.iteri (fun k e -> out.(e) <- a.(k)) entries;
    out
  in
  let slopes = by_edge slopes and intercepts = by_edge intercepts in
  let lats = Array.init len (fun e -> L.affine ~slope:slopes.(e) ~intercept:intercepts.(e)) in
  (lats, by_edge base, entries, dirs, len)

(* The certified line search takes the full-sum bisection's branches:
   the same γ bits on every line. Each probe the model decides returns
   the model A + γB, beyond the documented bound, with the full sum's
   sign; every other probe runs the full sum and returns its bits. *)
let prop_certified_line_search =
  qcheck ~count:300 "certified line search returns the full-sum bisection's gamma bit for bit"
    QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 4_700) in
      let marginal = Prng.bool rng in
      let lats, base, entries, dirs, len = random_line rng ~marginal in
      let line = L.Kernels.line lats in
      L.Kernels.gather line ~marginal ~base ~entries ~dirs ~len;
      let a, b, t = line_model ~marginal lats ~base ~entries ~dirs ~len in
      let wrong = ref [] in
      let certified gamma =
        let c0 = full_sums () in
        let v = L.Kernels.slope_sign line gamma in
        let ran = full_sums () > c0 in
        let s = L.Kernels.slope_at line gamma in
        let ok =
          if ran then same_bits v s
          else
            let model = a +. (gamma *. b) in
            let n = float_of_int (len + 10) in
            let bound =
              (2.0 *. n *. epsilon_float *. (t +. (gamma *. b))) +. (n *. Float.ldexp 1.0 (-500))
            in
            same_bits v model
            && Float.abs model > bound
            && ((v > 0.0 && s > 0.0) || (v < 0.0 && s < 0.0))
        in
        if not ok then wrong := gamma :: !wrong;
        v
      in
      let search df = Sgr_numerics.Minimize.line_search_convex ~df ~lo:0.0 ~hi:1.0 () in
      let full = search (L.Kernels.slope_at line) in
      let cert = search certified in
      match !wrong with
      | [] -> same_bits full cert || QCheck.Test.fail_reportf "gamma %h, full sum %h" cert full
      | g :: _ -> QCheck.Test.fail_reportf "probe at %h disagrees with the full sum" g)

let suite =
  [
    case "constant" test_constant;
    case "affine" test_affine;
    case "affine: negative rejected" test_affine_negative_rejected;
    case "polynomial" test_polynomial;
    case "polynomial: negative rejected" test_polynomial_negative_rejected;
    case "monomial" test_monomial;
    case "mm1" test_mm1;
    case "bpr" test_bpr;
    case "bpr: alpha = 0 or t0 = 0 is constant" test_bpr_constant;
    case "custom fallbacks" test_custom_numeric_fallbacks;
    case "shift" test_shift;
    case "inverse: affine" test_inverse_affine;
    case "inverse: shifted affine" test_inverse_shifted_affine;
    case "inverse: mm1" test_inverse_mm1;
    case "inverse: closed forms" test_inverse_closed_forms;
    case "inverse: constant fails" test_inverse_constant_fails;
    case "pretty printing" test_pp;
    prop_inverse_roundtrip;
    prop_marginal_ge_latency;
    prop_primitive_matches_quadrature;
  ]
  @ inverse_properties
  @ [
      prop_table_kernels_bitwise;
      case "table: closed-form kernels box no float" test_table_kernels_allocate_nothing;
      prop_level_kernels_bitwise;
      prop_gathered_line_bitwise;
      prop_fill_entries_bitwise;
      prop_certified_line_search;
      prop_non_finite_parameters_refused;
    ]
