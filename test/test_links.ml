(* Tests for parallel-links instances: water-filling Nash and optimum,
   costs, induced equilibria. Closed forms are checked where they exist
   (Pigou, linear systems); Wardrop/KKT conditions are verified post hoc on
   random instances. *)

open Helpers
module Links = Sgr_links.Links
module L = Sgr_latency.Latency
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Vec = Sgr_numerics.Vec

let test_make_validation () =
  (match Links.make [||] ~demand:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty system rejected");
  List.iter
    (fun demand ->
      match Links.make [| L.linear 1.0 |] ~demand with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "demand %g rejected" demand)
    [ -1.0; Float.nan; Float.infinity ]

let test_pigou_nash () =
  let n = Links.nash W.pigou in
  approx_array "N = (1,0)" [| 1.0; 0.0 |] n.assignment;
  approx "level" 1.0 n.level;
  approx "C(N)" 1.0 (Links.cost W.pigou n.assignment)

let test_pigou_opt () =
  let o = Links.opt W.pigou in
  approx_array "O = (1/2,1/2)" [| 0.5; 0.5 |] o.assignment;
  approx "marginal level" 1.0 o.level;
  approx "C(O)" 0.75 (Links.cost W.pigou o.assignment)

let test_pigou_poa () = approx "PoA = 4/3" (4.0 /. 3.0) (Links.price_of_anarchy W.pigou)

let test_fig456_nash () =
  (* Hand-solved: L(1 + 2/3 + 1/2 + 2/5) = 1 + 1/15  =>  L = 32/77. *)
  let n = Links.nash W.fig456 in
  approx "level 32/77" (32.0 /. 77.0) n.level;
  approx "n1 = L" (32.0 /. 77.0) n.assignment.(0);
  approx "n5 = 0 (constant too slow)" 0.0 n.assignment.(4)

let test_fig456_opt () =
  (* Constant link pins the marginal level at 0.7. *)
  let o = Links.opt W.fig456 in
  approx "level" 0.7 o.level;
  approx_array "optimum"
    [| 0.35; 0.7 /. 3.0; 0.175; 8.0 /. 75.0; 27.0 /. 200.0 |]
    o.assignment

let test_two_constant_links_share () =
  (* Two identical constants at the level split the remainder evenly. *)
  let t = Links.make [| L.linear 1.0; L.constant 0.5; L.constant 0.5 |] ~demand:2.0 in
  let n = Links.nash t in
  approx "level" 0.5 n.level;
  approx "fast link at inverse" 0.5 n.assignment.(0);
  approx "constants split" 0.75 n.assignment.(1);
  approx "constants split (2)" 0.75 n.assignment.(2)

let test_zero_demand () =
  let t = Links.make [| L.linear 1.0; L.constant 1.0 |] ~demand:0.0 in
  approx_array "all zeros" [| 0.0; 0.0 |] (Links.nash t).assignment;
  approx_array "opt zeros" [| 0.0; 0.0 |] (Links.opt t).assignment

let test_sub_instance () =
  let sub, map = Links.sub W.fig456 ~keep:[| true; false; true; false; true |] ~demand:0.4 in
  Alcotest.(check int) "links kept" 3 (Links.num_links sub);
  Alcotest.(check (array int)) "index map" [| 0; 2; 4 |] map;
  approx "demand" 0.4 sub.Links.demand

let test_mm1_symmetric () =
  (* Identical M/M/1 links: Nash = optimum = even split. *)
  let t = W.mm1_links ~capacities:[| 0.6; 0.6; 0.6; 0.6 |] ~demand:1.0 in
  let n = Links.nash t and o = Links.opt t in
  approx_array "nash even" [| 0.25; 0.25; 0.25; 0.25 |] n.assignment;
  approx_array "opt even" [| 0.25; 0.25; 0.25; 0.25 |] o.assignment;
  approx "PoA 1" 1.0 (Links.price_of_anarchy t)

let test_induced_pigou () =
  (* Leader plays ⟨0, 1/2⟩; Followers route the other 1/2 onto link 1. *)
  let ind = Links.induced W.pigou ~strategy:[| 0.0; 0.5 |] in
  approx_array "T = (1/2, 0)" [| 0.5; 0.0 |] ind.assignment;
  approx "C(S+T) = C(O)" 0.75 (Links.stackelberg_cost W.pigou ~strategy:[| 0.0; 0.5 |])

let test_induced_infeasible_strategy () =
  (match Links.induced W.pigou ~strategy:[| 2.0; 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overfull strategy rejected");
  match Links.induced W.pigou ~strategy:[| -0.5; 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative strategy rejected"

let test_mm1_overload_fails () =
  (* Demand beyond total capacity has no equilibrium: the solver must
     fail loudly, not return garbage. *)
  let t = Links.make [| L.mm1 ~capacity:0.4; L.mm1 ~capacity:0.4 |] ~demand:1.0 in
  (match Links.nash t with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "overloaded M/M/1 nash must fail");
  match Links.opt t with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "overloaded M/M/1 opt must fail"

let test_induced_full_budget () =
  (* The Leader may own the whole flow; the Followers then route 0. *)
  let ind = Links.induced W.pigou ~strategy:[| 0.5; 0.5 |] in
  approx_array "T = 0" [| 0.0; 0.0 |] ind.assignment;
  approx "cost is the optimum" 0.75 (Links.stackelberg_cost W.pigou ~strategy:[| 0.5; 0.5 |])

let test_huge_and_tiny_demands () =
  let t = Links.make [| L.linear 1.0; L.affine ~slope:2.0 ~intercept:1.0 |] ~demand:1e6 in
  check_true "huge demand solves" (Links.verify_nash t (Links.nash t).assignment);
  let t' = Links.with_demand t 1e-9 in
  check_true "tiny demand solves" (Links.is_feasible ~eps:1e-12 t' (Links.nash t').assignment)

let test_verify_functions () =
  let n = Links.nash W.fig456 and o = Links.opt W.fig456 in
  check_true "nash verifies" (Links.verify_nash W.fig456 n.assignment);
  check_true "opt verifies" (Links.verify_opt W.fig456 o.assignment);
  check_true "nash is not optimal here" (not (Links.verify_opt W.fig456 n.assignment));
  check_true "junk fails" (not (Links.verify_nash W.fig456 [| 0.2; 0.2; 0.2; 0.2; 0.2 |]))

let random_instance seed =
  let rng = Prng.create seed in
  match Prng.int rng 3 with
  | 0 -> W.random_affine_links rng ~m:(2 + Prng.int rng 6) ~demand:(Prng.uniform rng ~lo:0.5 ~hi:4.0) ()
  | 1 ->
      W.random_polynomial_links rng ~m:(2 + Prng.int rng 6)
        ~demand:(Prng.uniform rng ~lo:0.5 ~hi:4.0) ()
  | _ -> W.random_mm1_links rng ~m:(2 + Prng.int rng 6) ~demand:(Prng.uniform rng ~lo:0.5 ~hi:4.0) ()

let prop_nash_wardrop =
  qcheck "nash satisfies the Wardrop conditions" QCheck.small_nat (fun seed ->
      let t = random_instance (seed + 1) in
      let n = Links.nash t in
      Links.is_feasible t n.assignment && Links.verify_nash t n.assignment)

let prop_opt_kkt =
  qcheck "optimum satisfies marginal-cost equalization" QCheck.small_nat (fun seed ->
      let t = random_instance (seed + 1) in
      let o = Links.opt t in
      Links.is_feasible t o.assignment && Links.verify_opt t o.assignment)

let prop_opt_beats_perturbations =
  qcheck "optimum cost is a local (hence global) minimum" QCheck.small_nat (fun seed ->
      let t = random_instance (seed + 1) in
      let rng = Prng.create (seed + 7919) in
      let o = (Links.opt t).assignment in
      let co = Links.cost t o in
      let m = Links.num_links t in
      (* Random feasible transfers from one link to another never help. *)
      let ok = ref true in
      for _ = 1 to 10 do
        let i = Prng.int rng m and j = Prng.int rng m in
        if i <> j && o.(i) > 0.0 then begin
          let d = Prng.uniform rng ~lo:0.0 ~hi:o.(i) in
          let x = Array.copy o in
          x.(i) <- x.(i) -. d;
          x.(j) <- x.(j) +. d;
          if Links.cost t x < co -. (1e-7 *. Float.max 1.0 co) then ok := false
        end
      done;
      !ok)

let prop_poa_at_least_one =
  qcheck "C(N) >= C(O)" QCheck.small_nat (fun seed ->
      Links.price_of_anarchy (random_instance (seed + 1)) >= 1.0 -. 1e-7)

let prop_linear_poa_bound =
  qcheck "PoA <= 4/3 on affine instances" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 1) in
      let t =
        W.random_affine_links rng ~m:(2 + Prng.int rng 6)
          ~demand:(Prng.uniform rng ~lo:0.5 ~hi:4.0) ()
      in
      Links.price_of_anarchy t <= (4.0 /. 3.0) +. 1e-6)

let test_beckmann_pigou () =
  (* Φ(x, 1-x) = x²/2 + (1-x): minimized at x = 1 — the Nash point. *)
  approx "at nash" 0.5 (Links.beckmann W.pigou [| 1.0; 0.0 |]);
  approx "at optimum" (0.125 +. 0.5) (Links.beckmann W.pigou [| 0.5; 0.5 |])

let prop_nash_minimizes_beckmann =
  qcheck "the Nash assignment minimizes the Beckmann potential" QCheck.small_nat (fun seed ->
      let t = random_instance (seed + 1) in
      let rng = Prng.create (seed + 4241) in
      let n = (Links.nash t).assignment in
      let phi_n = Links.beckmann t n in
      (* Compare against random feasible assignments (Dirichlet-ish). *)
      let m = Links.num_links t in
      let ok = ref true in
      for _ = 1 to 10 do
        let w = Array.init m (fun _ -> -.Float.log (1.0 -. Prng.float rng)) in
        let s = Vec.sum w in
        let x = Array.map (fun wi -> wi /. s *. t.Links.demand) w in
        if Links.beckmann t x < phi_n -. (1e-7 *. Float.max 1.0 (Float.abs phi_n)) then
          ok := false
      done;
      !ok)

let prop_induced_is_wardrop_on_shifted =
  qcheck "induced flow is a Wardrop equilibrium of the shifted game" QCheck.small_nat
    (fun seed ->
      let t = random_instance (seed + 1) in
      let rng = Prng.create (seed + 31) in
      let o = (Links.opt t).assignment in
      let alpha = Prng.uniform rng ~lo:0.0 ~hi:1.0 in
      let strategy = Vec.scale alpha o in
      let ind = Links.induced t ~strategy in
      let shifted =
        Links.make
          (Array.mapi (fun i lat -> L.shift strategy.(i) lat) t.Links.latencies)
          ~demand:(t.Links.demand -. Vec.sum strategy)
      in
      Links.verify_nash shifted ind.assignment)

(* ---------------- Games of lines vs the bisection oracle ---------------- *)

module Pricing = Sgr_links.Pricing

let counter_value name =
  match List.assoc_opt name (Sgr_obs.Obs.counters ()) with Some v -> v | None -> 0

(* How far each named counter moves while [f] runs. *)
let counter_deltas names f =
  let before = List.map counter_value names in
  f ();
  List.map2 (fun name b -> (name, counter_value name - b)) names before

(* Random games on which every latency reduces to a line: plain affine,
   constants, [Shifted]-of-affine (leader flow via [L.shift]) and
   toll-shifted affine ([L.shift_intercept]). *)
let random_reducible_instance seed =
  let rng = Prng.create (seed + 1) in
  let m = 2 + Prng.int rng 8 in
  let affine () =
    L.affine
      ~slope:(Prng.uniform rng ~lo:0.1 ~hi:3.0)
      ~intercept:(Prng.uniform rng ~lo:0.0 ~hi:2.0)
  in
  let lats =
    Array.init m (fun _ ->
        match Prng.int rng 4 with
        | 0 -> L.constant (Prng.uniform rng ~lo:0.5 ~hi:3.0)
        | 1 -> affine ()
        | 2 -> L.shift (Prng.uniform rng ~lo:0.0 ~hi:1.0) (affine ())
        | _ -> L.shift_intercept (Prng.uniform rng ~lo:0.01 ~hi:1.0) (affine ()))
  in
  Links.make lats ~demand:(Prng.uniform rng ~lo:0.2 ~hi:4.0)

let engines_agree t =
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
  let agree (cf : Links.solution) (bi : Links.solution) =
    close cf.level bi.level
    && Array.for_all2 (fun x y -> close x y) cf.assignment bi.assignment
  in
  agree (Links.nash t) (Links.water_fill `Nash t)
  && agree (Links.opt t) (Links.water_fill `Opt t)

(* [s] is a finite level on which the flows sum to the demand (1e-12
   relative). *)
let fills_demand t (s : Links.solution) =
  let r = t.Links.demand in
  Float.is_finite s.level && Float.abs (Vec.sum s.assignment -. r) <= 1e-12 *. r

(* A demand log-uniform in [1e-300, 1e3]. *)
let log_uniform_demand rng = 10.0 ** Prng.uniform rng ~lo:(-300.0) ~hi:3.0

let prop_closed_form_matches_oracle =
  qcheck "closed form ≍ bisection oracle on reducible games" QCheck.small_nat (fun seed ->
      let t = random_reducible_instance seed in
      let t = Links.with_demand t (log_uniform_demand (Prng.create (seed + 5003))) in
      engines_agree t && fills_demand t (Links.nash t) && fills_demand t (Links.opt t))

let prop_shifted_reduce_exact =
  qcheck "Shifted-of-affine reduction is exact" QCheck.small_nat (fun seed ->
      let rng = Prng.create (seed + 11) in
      let a = Prng.uniform rng ~lo:0.1 ~hi:5.0 and b = Prng.uniform rng ~lo:0.0 ~hi:5.0 in
      let s = Prng.uniform rng ~lo:0.0 ~hi:3.0 in
      match Links.line (L.shift s (L.affine ~slope:a ~intercept:b)) with
      | Some (a', b') -> Float.equal a' a && Float.equal b' (b +. (a *. s))
      | None -> false)

(* SNIPPETS.md snippet 1's [get_flow], the test oracle for games of
   lines aᵢx + bᵢ with every aᵢ > 0: over the links in [keep],
   xᵢ = (r + Σⱼ (bⱼ - bᵢ)/aⱼ) / (aᵢ·Σⱼ 1/aⱼ); the links whose flow comes
   out negative are dropped and the rest solved again. *)
let rec get_flow ~a ~b ~r keep =
  let inv = List.fold_left (fun s j -> s +. (1.0 /. a.(j))) 0.0 keep in
  let x = Array.make (Array.length a) 0.0 in
  List.iter
    (fun i ->
      let spread = List.fold_left (fun s j -> s +. ((b.(j) -. b.(i)) /. a.(j))) 0.0 keep in
      x.(i) <- (r +. spread) /. (a.(i) *. inv))
    keep;
  let kept = List.filter (fun i -> x.(i) >= 0.0) keep in
  if List.length kept = List.length keep then x else get_flow ~a ~b ~r kept

(* [nash] and [opt] against [get_flow] on the latency lines and on the
   doubled-slope marginal lines. *)
let matches_get_flow t =
  let lines = Array.map (fun lat -> Option.get (Links.line lat)) t.Links.latencies in
  let a = Array.map fst lines and b = Array.map snd lines in
  let r = t.Links.demand in
  let keep = List.init (Array.length a) Fun.id in
  let close x y = Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 r in
  Array.for_all2 close (Links.nash t).assignment (get_flow ~a ~b ~r keep)
  && Array.for_all2 close (Links.opt t).assignment
       (get_flow ~a:(Array.map (fun ai -> 2.0 *. ai) a) ~b ~r keep)

let test_closed_form_ladder () =
  (* Adversarial spread: geometrically growing intercepts leave each
     Newton step on the lines only one or two fewer loaded links; it must
     still end on the oracles' answer, in a pinned number of steps. *)
  let m = 24 in
  let lats =
    Array.init m (fun i ->
        L.affine
          ~slope:(0.01 +. (0.1 *. float_of_int i))
          ~intercept:(1.5 ** float_of_int i))
  in
  let t = Links.make lats ~demand:0.5 in
  check_true "ladder agrees with the bisection oracle" (engines_agree t);
  check_true "ladder agrees with get_flow" (matches_get_flow t);
  let steps =
    counter_deltas [ "links.level_iterations" ] (fun () ->
        ignore (Links.nash t);
        ignore (Links.opt t))
  in
  Alcotest.(check (list (pair string int)))
    "nash + opt level steps" [ ("links.level_iterations", 6) ] steps

(* Random games of lines with no constant: affine, degree-1 polynomial,
   leader-shifted affine and toll-shifted affine links. *)
let random_line_game seed =
  let rng = Prng.create (seed + 9001) in
  let m = 2 + Prng.int rng 8 in
  let u lo hi = Prng.uniform rng ~lo ~hi in
  let lats =
    Array.init m (fun _ ->
        let affine () = L.affine ~slope:(u 0.1 3.0) ~intercept:(u 0.0 2.0) in
        match Prng.int rng 4 with
        | 0 -> affine ()
        | 1 -> L.polynomial [| u 0.0 2.0; u 0.1 3.0 |]
        | 2 -> L.shift (u 0.0 1.0) (affine ())
        | _ -> L.shift_intercept (u 0.01 1.0) (affine ()))
  in
  Links.make lats ~demand:(u 0.2 4.0)

let prop_lines_match_get_flow =
  qcheck "lines: nash/opt ≍ get_flow" QCheck.small_nat (fun seed ->
      matches_get_flow (random_line_game seed))

let test_tiny_demands_and_ties () =
  (* A demand below the loop's tolerance, and 1,000 lines on one
     intercept whose all-active root rounds under it: the level sits on
     the activation point and the flows still carry the demand. *)
  let rng = Prng.create 24 in
  let ties =
    Array.init 1_000 (fun _ -> L.affine ~slope:(Prng.uniform rng ~lo:0.5 ~hi:3.0) ~intercept:0.3)
  in
  List.iter
    (fun (name, lats, r, activation) ->
      let t = Links.make lats ~demand:r in
      List.iter
        (fun (what, (s : Links.solution)) ->
          let tag = Printf.sprintf "%s %s" name what in
          check_true (tag ^ ": finite level") (Float.is_finite s.level);
          approx ~eps:1e-12 (tag ^ ": level on the activation point") activation s.level;
          approx ~eps:1e-12 (tag ^ ": flows sum to the demand") 1.0 (Vec.sum s.assignment /. r))
        [ ("nash", Links.nash t); ("opt", Links.opt t) ])
    [
      ( "x + 1, 2x + 1",
        [| L.affine ~slope:1.0 ~intercept:1.0; L.affine ~slope:2.0 ~intercept:1.0 |],
        1e-20,
        1.0 );
      ("x + 1", [| L.affine ~slope:1.0 ~intercept:1.0 |], 1e-20, 1.0);
      ("1,000 ties", ties, 1e-13, 0.3);
    ]

let test_closed_form_edges () =
  (* Zero demand: no flow, level at the cheapest empty link. *)
  let t0 = Links.make [| L.linear 1.0; L.constant 2.0 |] ~demand:0.0 in
  let n0 = Links.nash t0 in
  approx_array "zero-demand flows" [| 0.0; 0.0 |] n0.assignment;
  approx "zero-demand level" 0.0 n0.level;
  (* Single link takes everything. *)
  let t1 = Links.make [| L.affine ~slope:2.0 ~intercept:1.0 |] ~demand:3.0 in
  let n1 = Links.nash t1 in
  approx "single-link flow" 3.0 n1.assignment.(0);
  approx "single-link level" 7.0 n1.level;
  (* All-constant: the reservoir semantics — cheapest constants split. *)
  let tc = Links.make [| L.constant 1.0; L.constant 1.0; L.constant 2.0 |] ~demand:3.0 in
  let nc = Links.nash tc in
  approx_array "constants split evenly" [| 1.5; 1.5; 0.0 |] nc.assignment;
  approx "level pinned at the reservoir" 1.0 nc.level

(* The Newton engine against the bisection reference: same cost (to
   1e-7) and level. Flows are not compared: where one ulp of the level
   moves a steep link's flow, the reference's proportional rescale puts
   its residual elsewhere. *)
let newton_agrees t =
  let agree (e : Links.solution) (r : Links.solution) =
    let ce = Links.cost t e.assignment and cr = Links.cost t r.assignment in
    Float.abs (ce -. cr) <= 1e-7 *. Float.max 1e-12 cr
    && Float.abs (e.level -. r.level) <= 1e-9 *. Float.max 1.0 (Float.abs r.level)
  in
  agree (Links.nash t) (Links.water_fill `Nash t) && agree (Links.opt t) (Links.water_fill `Opt t)

let test_closed_form_fallback () =
  (* An M/M/1 game has no line: the engine inverts each link's latency
     at every step, and must agree with the reference. *)
  let t = W.mm1_links ~capacities:[| 2.0; 3.0 |] ~demand:1.0 in
  check_true "curve result agrees with the bisection reference" (newton_agrees t)

let prop_newton_matches_reference =
  qcheck "Newton engine ≍ bisection reference (cost and level)" QCheck.small_nat (fun seed ->
      newton_agrees (random_instance (seed + 1)))

(* The certificate scan's game for seed k: 2 to 10 random b + c·x^d
   links (d <= 4) carrying r = 1, and the generator to draw α from. *)
let scan_instance k =
  let rng = Prng.create k in
  let t = W.random_polynomial_links rng ~m:(2 + Prng.int rng 9) () in
  (t, rng)

(* Each answer passes its own certificate: the Nash flow [verify_nash],
   the optimum [verify_opt], and the Followers' flow induced by α·O
   [verify_nash] on the shifted game. *)
let certificates t ~alpha =
  let n = (Links.nash t).assignment and o = (Links.opt t).assignment in
  let strategy = Vec.scale alpha o in
  let shifted =
    Links.make
      (Array.mapi (fun i lat -> L.shift strategy.(i) lat) t.Links.latencies)
      ~demand:(t.Links.demand -. Vec.sum strategy)
  in
  [
    ("nash", Links.is_feasible t n && Links.verify_nash t n);
    ("opt", Links.is_feasible t o && Links.verify_opt t o);
    ("induced", Links.verify_nash shifted (Links.induced t ~strategy).assignment);
  ]

let test_certificate_scan () =
  (* Under bisection on the level, 25 of these games failed the nash
     check and 25 the opt check. *)
  let failures = ref [] in
  for k = 1 to 5_000 do
    let t, rng = scan_instance k in
    List.iter
      (fun (what, ok) -> if not ok then failures := Printf.sprintf "seed %d: %s" k what :: !failures)
      (certificates t ~alpha:(Prng.float rng))
  done;
  Alcotest.(check (list string)) "certificate failures" [] (List.rev !failures)

let test_certificate_at_activation () =
  (* The optimum's level lands on a link's activation point: one ulp of
     the level moves that link's flow by more than the check allows, so
     the residual must go to it, not to the loaded links. *)
  List.iter
    (fun k ->
      let t, rng = scan_instance k in
      List.iter
        (fun (what, ok) -> check_true (Printf.sprintf "seed %d: %s" k what) ok)
        (certificates t ~alpha:(Prng.float rng)))
    [ 9169; 24734 ]

let test_e18_instance_4 () =
  (* E18's instance 4, whose optimum failed [verify_opt] under bisection
     on the level; OpTop's β then read 0.454285. *)
  let poly = L.polynomial in
  let t =
    Links.make
      [|
        poly [| 0x1.96bc6cfb64246p-1; 0.0; 0.0; 0.0; 0x1.7b154a46e2121p+0 |];
        poly [| 0x1.d02e612893338p-4; 0.0; 0.0; 0x1.0c3195e6fc07p+0 |];
        poly [| 0x1.5990b3a00f093p-1; 0.0; 0.0; 0.0; 0x1.265f4f817dd86p-1 |];
      |]
      ~demand:1.0
  in
  check_true "opt passes verify_opt" (Links.verify_opt t (Links.opt t).assignment);
  approx ~eps:1e-6 "beta" 0.454271 (Stackelberg.Optop.beta t)

let test_closed_form_dispatch_work () =
  (* The bench's affine instances: the T1 games at m = 10 and 100, the
     m = 100 game with marginal-cost tolls and a leader shift on every
     link, and the T3 Theorem 2.4 game. Every latency is a line, so
     [nash]/[opt] run on the lines: not a single latency evaluation, no
     bisection anywhere, and a pinned number of level steps. *)
  let affine m = W.random_affine_links (Prng.create (1000 + m)) ~m ~demand:1.0 () in
  let tolled =
    let t = Stackelberg.Tolls.tolled_links (affine 100) in
    Links.make (Array.map (L.shift 0.125) t.Links.latencies) ~demand:t.Links.demand
  in
  let names = [ "latency.evaluations"; "bisection.iterations"; "links.level_iterations" ] in
  List.iter
    (fun (tag, t, steps) ->
      let deltas =
        counter_deltas names (fun () ->
            ignore (Links.nash t);
            ignore (Links.opt t))
      in
      Alcotest.(check (list (pair string int)))
        (tag ^ ": nash + opt work")
        (List.combine names [ 0; 0; steps ])
        deltas)
    [
      ("affine m=10", affine 10, 3);
      ("affine m=100", affine 100, 8);
      ("tolled m=100", tolled, 8);
    ];
  let t3 = W.random_common_slope_links (Prng.create 3008) ~m:8 ~demand:1.0 () in
  let alpha = 0.7 *. Float.max 0.05 (Stackelberg.Optop.beta t3) in
  let deltas =
    counter_deltas names (fun () -> ignore (Stackelberg.Linear_exact.solve t3 ~alpha))
  in
  (* Theorem 2.4's own cost sums evaluate the latencies; the water-fills
     inside it evaluate none. *)
  Alcotest.(check (list (pair string int)))
    "thm2.4 m=8: no bisection"
    (List.combine names [ 2300; 0; 1033 ])
    deltas

let test_newton_work () =
  (* The links-sweep game: ten b + c·x^d links. Every inverse is in
     closed form, so nash + opt bisect no link's inverse
     ([bisection.calls]); the two level solves take 16 steps, one of
     them a safeguard bisection step, and evaluate each curve once at
     zero flow (a degree-1 link's activation point is its intercept). *)
  let t = W.random_polynomial_links (Prng.create 1) ~m:10 ~demand:1.0 () in
  let names =
    [ "bisection.calls"; "bisection.iterations"; "links.level_iterations";
      "latency.evaluations" ]
  in
  let deltas =
    counter_deltas names (fun () ->
        ignore (Links.nash t);
        ignore (Links.opt t))
  in
  Alcotest.(check (list (pair string int)))
    "nash + opt work" (List.combine names [ 0; 1; 16; 16 ]) deltas

let test_constant_bpr () =
  (* A BPR curve with α = 0 is the constant t₀: the game solves as the
     one with a literal constant link (it used to escape
     [Bisection.expand_upper]'s [Failure]). *)
  let with_link l = Links.make [| L.linear 1.0; l |] ~demand:2.0 in
  let bpr = with_link (L.bpr ~free_flow:1.0 ~capacity:1.0 ~alpha:0.0 ~beta:4.0 ()) in
  let const = with_link (L.constant 1.0) in
  List.iter
    (fun (name, solve) ->
      let b : Links.solution = solve bpr and c : Links.solution = solve const in
      approx_array (name ^ " flows") c.assignment b.assignment;
      approx (name ^ " level") c.level b.level)
    [ ("nash", Links.nash); ("opt", Links.opt) ]

(* [sgr solve]'s parallel-links report: flows through [Vec.pp]; levels,
   costs and PoA at [%.6g]. *)
let render_links t (nash : Links.solution) (opt : Links.solution) =
  let cn = Links.cost t nash.assignment and co = Links.cost t opt.assignment in
  String.concat "\n"
    [
      Format.asprintf "nash     = %a  (common latency %.6g)" Vec.pp nash.assignment nash.level;
      Format.asprintf "optimum  = %a  (marginal level %.6g)" Vec.pp opt.assignment opt.level;
      Format.asprintf "C(N) = %.6g, C(O) = %.6g, price of anarchy = %.6g" cn co (cn /. co);
    ]

let test_solve_output_matches_reference () =
  List.iter
    (fun (name, t) ->
      Alcotest.(check string)
        name
        (render_links t (Links.water_fill `Nash t) (Links.water_fill `Opt t))
        (render_links t (Links.nash t) (Links.opt t)))
    [ ("pigou", W.pigou); ("fig456", W.fig456); ("pigou-degree-4", W.pigou_degree 4) ]

(* ---------------- Best-response toll pricing ---------------- *)

let test_pricing_duopoly_analytic () =
  (* ℓ₁ = x, ℓ₂ = 2x, r = 1: revenue FOCs 2 - 2τ₁ + τ₂ = 0 and
     1 + τ₁ - 2τ₂ = 0 give τ = (5/3, 4/3), flow (5/9, 4/9), user cost
     19/27 against C(O) = 2/3 — price of pricing 19/18. *)
  let t = Links.make [| L.linear 1.0; L.linear 2.0 |] ~demand:1.0 in
  let r = Pricing.best_response t in
  check_true "converged" r.Pricing.converged;
  approx ~eps:1e-3 "toll 1 = 5/3" (5.0 /. 3.0) r.Pricing.tolls.(0);
  approx ~eps:1e-3 "toll 2 = 4/3" (4.0 /. 3.0) r.Pricing.tolls.(1);
  approx ~eps:1e-3 "flow 1 = 5/9" (5.0 /. 9.0) r.Pricing.flow.(0);
  approx ~eps:1e-3 "flow 2 = 4/9" (4.0 /. 9.0) r.Pricing.flow.(1);
  approx ~eps:1e-3 "user cost 19/27" (19.0 /. 27.0) r.Pricing.user_cost;
  approx ~eps:1e-3 "price of pricing 19/18" (19.0 /. 18.0) (Pricing.price_of_pricing t r)

let test_pricing_validation () =
  (match Pricing.best_response (Links.make [| L.linear 1.0 |] ~demand:1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "monopoly rejected");
  (match Pricing.best_response (Links.make [| L.linear 1.0; L.constant 1.0 |] ~demand:1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "constant-latency link rejected");
  match Pricing.best_response (W.mm1_links ~capacities:[| 2.0; 3.0 |] ~demand:1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-affine latencies rejected"

let prop_pricing_fixed_point =
  qcheck ~count:25 "pricing: converged tolls are mutual best responses" QCheck.small_nat
    (fun seed ->
      let rng = Prng.create (seed + 3) in
      let m = 2 + Prng.int rng 3 in
      let lats =
        Array.init m (fun _ ->
            L.affine
              ~slope:(Prng.uniform rng ~lo:0.2 ~hi:2.0)
              ~intercept:(Prng.uniform rng ~lo:0.0 ~hi:1.0))
      in
      let t = Links.make lats ~demand:(Prng.uniform rng ~lo:0.5 ~hi:2.0) in
      let res = Pricing.best_response t in
      let feasible =
        Float.abs (Vec.sum res.Pricing.flow -. t.Links.demand)
        <= 1e-6 *. Float.max 1.0 t.Links.demand
        && Array.for_all (fun x -> x >= -1e-9) res.Pricing.flow
        && Array.for_all (fun tau -> tau >= 0.0) res.Pricing.tolls
      in
      (* Unilateral ±10% toll deviations must not beat the fixed point
         (up to the search resolution). *)
      let revenue i tau =
        let lats' =
          Array.mapi
            (fun j lat ->
              let tj = if j = i then tau else res.Pricing.tolls.(j) in
              if tj > 0.0 then L.shift_intercept tj lat else lat)
            lats
        in
        let x = (Links.nash (Links.make lats' ~demand:t.Links.demand)).Links.assignment in
        tau *. x.(i)
      in
      let best = ref true in
      if res.Pricing.converged then
        Array.iteri
          (fun i tau ->
            let r0 = revenue i tau in
            List.iter
              (fun f ->
                if revenue i ((tau *. f) +. 0.001) > r0 +. (1e-3 *. Float.max 1.0 r0) then
                  best := false)
              [ 0.9; 1.1 ])
          res.Pricing.tolls;
      feasible && !best)


(* ---------------- Bits of non-line games ---------------- *)

(* A random game with at least one rigid link that is not a line: link 0
   is a multi-term quadratic, b + c·xᵈ with d >= 2, or a BPR curve; the
   others mix lines (affine, degree-1 polynomials, constants) with
   b + c·xᵈ, quadratics, M/M/1 and BPR, and a third are leader-shifted. *)
let random_curve_game seed =
  let rng = Prng.create (seed + 77) in
  let u lo hi = Prng.uniform rng ~lo ~hi in
  let power d =
    L.polynomial
      (Array.init (d + 1) (fun i -> if i = 0 then u 0.0 1.0 else if i = d then u 0.5 2.0 else 0.0))
  in
  let quadratic () = L.polynomial [| u 0.0 1.0; u 0.0 1.0; u 0.1 2.0 |] in
  let bpr () = L.bpr ~free_flow:(u 0.2 2.0) ~capacity:(u 0.5 3.0) () in
  let curve () =
    match Prng.int rng 3 with 0 -> quadratic () | 1 -> power (2 + Prng.int rng 3) | _ -> bpr ()
  in
  let m = 2 + Prng.int rng 9 in
  let lats =
    Array.init m (fun i ->
        let lat =
          if i = 0 then curve ()
          else
            match Prng.int rng 7 with
            | 0 -> L.affine ~slope:(u 0.1 3.0) ~intercept:(u 0.0 2.0)
            | 1 -> power 1
            | 2 -> power (1 + Prng.int rng 4)
            | 3 -> quadratic ()
            | 4 -> L.mm1 ~capacity:(u 1.0 3.0)
            | 5 -> bpr ()
            | _ -> L.constant (u 0.5 3.0)
        in
        if Prng.int rng 3 = 0 then L.shift (u 0.0 0.5) lat else lat)
  in
  Links.make lats ~demand:(10.0 ** u (-6.0) 1.5)

let add_bits buf v = Buffer.add_string buf (Int64.to_string (Int64.bits_of_float v))

(* The links-sweep benchmark game at seed 1: ten b + c·xᵈ links, the
   link lines of its instance text shuffled by [Prng.create 1]. *)
let links_sweep_game () =
  let module IF = Sgr_io.Instance_file in
  let t = W.random_polynomial_links (Prng.create 1) ~m:10 ~demand:1.0 () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (IF.to_string (IF.Links t)))
  in
  let fixed, links = List.partition (fun l -> not (String.starts_with ~prefix:"link " l)) lines in
  let links = Array.of_list links in
  Prng.shuffle (Prng.create 1) links;
  match IF.parse (String.concat "\n" (fixed @ Array.to_list links) ^ "\n") with
  | Ok (IF.Links t) -> t
  | _ -> Alcotest.fail "links-sweep game must parse"

let test_curve_game_bits () =
  (* MD5s recorded before the line engine moved into the Newton loop:
     the games with a rigid link that is not a line keep every bit. *)
  let buf = Buffer.create (1 lsl 16) in
  for seed = 1 to 2_500 do
    let t = random_curve_game seed in
    List.iter
      (fun (s : Links.solution) ->
        Array.iter (add_bits buf) s.assignment;
        add_bits buf s.level)
      [ Links.nash t; Links.opt t ]
  done;
  let curve = Stackelberg.Alpha_sweep.run ~jobs:1 ~samples:41 (links_sweep_game ()) in
  let cbuf = Buffer.create 4096 in
  add_bits cbuf curve.beta;
  List.iter
    (fun (p : Stackelberg.Alpha_sweep.point) ->
      add_bits cbuf p.alpha;
      add_bits cbuf p.ratio)
    curve.points;
  Alcotest.(check (pair string string))
    "nash/opt bits of 2,500 games, links-sweep curve bits"
    ("b30f422933daa8aeb604d32ac3e400cc", "d0792125ae77d389f74785a959e7a9f4")
    ( Digest.to_hex (Digest.string (Buffer.contents buf)),
      Digest.to_hex (Digest.string (Buffer.contents cbuf)) )

(* A feasible leader strategy for [random_curve_game seed]: a random
   share of the demand spread over a random subset of the links, so
   some links keep offset 0 and the leader-shifted ones get a second
   offset. *)
let random_strategy seed (t : Links.t) =
  let rng = Prng.create (seed + 4242) in
  let w =
    Array.init (Links.num_links t) (fun _ -> if Prng.int rng 4 = 0 then 0.0 else Prng.float rng)
  in
  let budget = t.Links.demand *. Prng.float rng and total = Vec.sum w in
  if total > 0.0 then Array.map (fun wi -> budget *. wi /. total) w else w

let test_induced_bits () =
  (* MD5s recorded before the level solve read a flat table: the
     induced equilibrium (flows and level) and the Stackelberg cost of
     2,000 games with a curve under random strategies keep every bit. A
     solve that fails records its message. *)
  let ibuf = Buffer.create (1 lsl 16) and cbuf = Buffer.create (1 lsl 14) in
  let guard buf f =
    try f () with Failure m | Invalid_argument m -> Buffer.add_string buf m
  in
  for seed = 1 to 2_000 do
    let t = random_curve_game seed in
    let strategy = random_strategy seed t in
    guard ibuf (fun () ->
        let s = Links.induced t ~strategy in
        Array.iter (add_bits ibuf) s.assignment;
        add_bits ibuf s.level);
    guard cbuf (fun () -> add_bits cbuf (Links.stackelberg_cost t ~strategy))
  done;
  Alcotest.(check (pair string string))
    "induced bits of 2,000 games, stackelberg cost bits"
    ("dc8dea114848ba8a25723d218199fa4f", "bb5fa6fbb7ed00b38de11de9f5d2ffc7")
    ( Digest.to_hex (Digest.string (Buffer.contents ibuf)),
      Digest.to_hex (Digest.string (Buffer.contents cbuf)) )

let test_sweep_gate () =
  (* One links-sweep sweep (41 α on the benchmark game, jobs 1): OpTop,
     then LLF and SCALE's induced equilibria at every α below β. Every
     curve inverts in closed form, so no link bisects ([bisection.calls];
     one level step is a safeguard bisection step); each solve evaluates
     each curve once at zero flow. Before the level table a sweep made
     695 evaluations and 348 level steps (OpTop solved the whole game's
     Nash twice) and allocated 659,696 bytes, three closures per link
     per induced solve among them. *)
  let t = links_sweep_game () in
  let sweep () = ignore (Stackelberg.Alpha_sweep.run ~jobs:1 ~samples:41 t) in
  sweep ();
  let names =
    [ "latency.evaluations"; "links.level_iterations"; "bisection.iterations";
      "bisection.calls"; "bisection.expansions" ]
  in
  let bytes = ref 0.0 in
  let deltas = counter_deltas names (fun () -> bytes := snd (allocated_bytes sweep)) in
  Alcotest.(check (list (pair string int)))
    "sweep work" (List.combine names [ 687; 342; 1; 0; 0 ]) deltas;
  if !bytes >= 330_000.0 then Alcotest.failf "a links-sweep sweep allocated %.0f bytes" !bytes

let suite =
  [
    case "make: validation" test_make_validation;
    case "pigou: nash" test_pigou_nash;
    case "pigou: optimum" test_pigou_opt;
    case "pigou: PoA = 4/3" test_pigou_poa;
    case "fig4-6: nash closed form" test_fig456_nash;
    case "fig4-6: optimum closed form" test_fig456_opt;
    case "constants: tie splitting" test_two_constant_links_share;
    case "zero demand" test_zero_demand;
    case "sub-instances" test_sub_instance;
    case "mm1: symmetric system" test_mm1_symmetric;
    case "induced: pigou" test_induced_pigou;
    case "induced: infeasible strategies rejected" test_induced_infeasible_strategy;
    case "mm1: overload fails loudly" test_mm1_overload_fails;
    case "induced: leader owns everything" test_induced_full_budget;
    case "extreme demands" test_huge_and_tiny_demands;
    case "verify_nash / verify_opt" test_verify_functions;
    case "beckmann potential: pigou" test_beckmann_pigou;
    prop_nash_minimizes_beckmann;
    prop_nash_wardrop;
    prop_opt_kkt;
    prop_opt_beats_perturbations;
    prop_poa_at_least_one;
    prop_linear_poa_bound;
    prop_induced_is_wardrop_on_shifted;
    case "closed form: ladder pruning" test_closed_form_ladder;
    case "closed form: edge cases" test_closed_form_edges;
    case "closed form: non-affine fallback" test_closed_form_fallback;
    case "closed form: affine bench workloads run no bisection" test_closed_form_dispatch_work;
    case "newton: links-sweep game work" test_newton_work;
    case "newton: certificates on 5,000 random polynomial games" test_certificate_scan;
    case "newton: level on an activation point" test_certificate_at_activation;
    case "newton: E18 instance 4 optimum" test_e18_instance_4;
    case "constant BPR link" test_constant_bpr;
    prop_newton_matches_reference;
    case "solve output: nash/opt print like the water_fill reference"
      test_solve_output_matches_reference;
    case "pricing: duopoly analytic equilibrium" test_pricing_duopoly_analytic;
    case "pricing: validation" test_pricing_validation;
    prop_closed_form_matches_oracle;
    prop_shifted_reduce_exact;
    prop_pricing_fixed_point;
    case "newton: bits of games with a curve" test_curve_game_bits;
    prop_lines_match_get_flow;
    case "lines: tiny demands and ties" test_tiny_demands_and_ties;
    case "induced: bits of games with a curve" test_induced_bits;
    case "perf gate: a links-sweep sweep's work and allocation" test_sweep_gate;
  ]
