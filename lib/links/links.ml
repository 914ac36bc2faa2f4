module L = Sgr_latency.Latency
module Bisection = Sgr_numerics.Bisection
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance

type t = { latencies : L.t array; demand : float }

let make latencies ~demand =
  if Array.length latencies = 0 then invalid_arg "Links.make: no links";
  if not (Float.is_finite demand && demand >= 0.0) then
    invalid_arg "Links.make: demand must be finite and nonnegative";
  { latencies; demand }

let num_links t = Array.length t.latencies
let with_demand t demand = make t.latencies ~demand

let sub t ~keep ~demand =
  assert (Array.length keep = num_links t);
  let kept = ref [] in
  Array.iteri (fun i k -> if k then kept := i :: !kept) keep;
  let index_map = Array.of_list (List.rev !kept) in
  let latencies = Array.map (fun i -> t.latencies.(i)) index_map in
  (make latencies ~demand, index_map)

let cost t x =
  assert (Array.length x = num_links t);
  let n = num_links t in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. L.cost t.latencies.(i) x.(i)
  done;
  !acc

let is_feasible ?(eps = Tol.check_eps) t x =
  Array.length x = num_links t
  && Vec.all_nonneg ~eps x
  && Tol.approx ~eps (Vec.sum x) t.demand

let latencies_at t x = Array.mapi (fun i xi -> L.eval t.latencies.(i) xi) x

let beckmann t x =
  assert (Array.length x = num_links t);
  let acc = ref 0.0 in
  Array.iteri (fun i xi -> acc := !acc +. L.primitive t.latencies.(i) xi) x;
  !acc

type solution = { assignment : float array; level : float }

(* Water-filling: find the minimal level [l] at which the links can absorb
   the whole demand, where a strictly-increasing ("rigid") link absorbs
   [inverse ℓ l] and a constant link of value [c] absorbs nothing below
   its level and arbitrarily much at it. The criterion is the latency
   for Nash and the marginal cost for the optimum. The constant links
   handle themselves; [solve_rigid] finds the level in [[lo, hi]] at
   which the rigid links alone absorb the demand, given each link's
   criterion value at zero flow ([g0]). *)
let water_level criterion ~solve_rigid t =
  let value, inverse =
    match criterion with `Nash -> (L.eval, L.inverse) | `Opt -> (L.marginal, L.inverse_marginal)
  in
  let n = num_links t and r = t.demand in
  let lats = t.latencies in
  let consts = Array.map L.constant_value lats in
  let rigid = Array.map Option.is_none consts in
  let g0 =
    Array.mapi (fun i c -> match c with Some c -> c | None -> value lats.(i) 0.0) consts
  in
  let c_min =
    Array.fold_left
      (fun acc c -> match c with Some c -> Float.min acc c | None -> acc)
      Float.infinity consts
  in
  (* Aggregate demand the rigid links absorb at level l. *)
  let absorbed l =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      if rigid.(i) then acc := !acc +. inverse lats.(i) l
    done;
    !acc
  in
  let base_level = Array.fold_left Float.min Float.infinity g0 in
  if r <= 0.0 then { assignment = Array.make n 0.0; level = base_level }
  else if c_min < Float.infinity && absorbed c_min < r then begin
    (* The constant links act as an infinite reservoir at [c_min]: they
       soak up whatever the rigid links do not take, split evenly among
       the constants sitting exactly at the level. *)
    let assignment = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if rigid.(i) then assignment.(i) <- Tol.clamp_nonneg (inverse lats.(i) c_min)
    done;
    let remainder = r -. absorbed c_min in
    let at_level =
      Array.to_list consts
      |> List.mapi (fun i c -> (i, c))
      |> List.filter_map (fun (i, c) ->
             match c with
             | Some c when Tol.approx ~eps:1e-9 c c_min -> Some i
             | _ -> None)
    in
    let k = List.length at_level in
    assert (k > 0);
    List.iter (fun i -> assignment.(i) <- remainder /. float_of_int k) at_level;
    { assignment; level = c_min }
  end
  else begin
    let hi =
      if c_min < Float.infinity then c_min
      else
        Bisection.expand_upper
          ~start:(Float.max 1.0 (2.0 *. Float.abs base_level))
          ~f:absorbed ~target:r ()
    in
    solve_rigid t ~inverse ~rigid ~g0 ~absorbed ~lo:base_level ~hi
  end

(* The reference: bisect the level, invert every link there, and absorb
   the bisection residual by rescaling the whole assignment. *)
let bisect_rigid t ~inverse ~rigid ~g0:_ ~absorbed ~lo ~hi =
  let level =
    Bisection.solve_increasing ~tol:(4.0 *. epsilon_float) ~f:absorbed ~y:t.demand ~lo ~hi ()
  in
  let assignment =
    Array.mapi
      (fun i lat -> if rigid.(i) then Tol.clamp_nonneg (inverse lat level) else 0.0)
      t.latencies
  in
  { assignment; level }

let water_fill criterion t =
  let sol = water_level criterion ~solve_rigid:bisect_rigid t in
  (* Spread the (tiny) bisection residual over the loaded links
     proportionally, so the assignment is exactly feasible. *)
  let x = sol.assignment in
  let total = Vec.sum x in
  if total > 0.0 then begin
    let correction = t.demand /. total in
    Array.iteri (fun i xi -> x.(i) <- xi *. correction) x
  end;
  sol

let c_level_steps = Sgr_obs.Obs.counter "links.level_iterations"
let c_safeguard_steps = Sgr_obs.Obs.counter "bisection.iterations"

(* Far more level steps than a solve takes (the worst nash or opt over
   50,000 random polynomial games takes 39); the loop stops here
   regardless. *)
let max_level_steps = 200

(* The engine: safeguarded Newton on the level. The rigid links' total
   flow Σxᵢ(l) rises with l at rate Σ 1/gᵢ'(xᵢ) over the loaded links,
   where [slope] is gᵢ' (ℓ' for Nash, 2ℓ' + xℓ'' for the optimum). At
   [lo] no rigid link is loaded, so the first step is the secant from
   (lo, -r) to (hi, Σx - r); every later step is a Newton step, or a
   bisection step when the Newton step leaves the bracket. It stops once
   the flows sum to the demand within 1e-13 (relative to max(1, r)) or
   the bracket is a few ulps wide. What is left of the demand is the
   part float precision cannot resolve the level for: it goes to the
   links in proportion to dxᵢ/dl, which moves every link's level by the
   same first-order amount, so no Wardrop (or marginal-cost) equality
   breaks. *)
let newton_rigid ~slope t ~inverse ~rigid ~g0 ~absorbed:_ ~lo ~hi =
  let n = num_links t and r = t.demand and lats = t.latencies in
  let x = Array.make n 0.0 in
  (* Σxᵢ(l) - r, leaving the rigid links' flows at level l in [x]. *)
  let excess l =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      if rigid.(i) then begin
        let xi = Tol.clamp_nonneg (inverse lats.(i) l) in
        x.(i) <- xi;
        s := !s +. xi
      end
    done;
    !s -. r
  in
  (* dΣx/dl at the flows in [x]. *)
  let flow_rate () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      if x.(i) > 0.0 then s := !s +. (1.0 /. slope lats.(i) x.(i))
    done;
    !s
  in
  let tol = 1e-13 *. Float.max 1.0 r in
  let narrow lo hi = hi -. lo <= 4.0 *. epsilon_float *. Float.max (Float.abs lo) (Float.abs hi) in
  let lo = ref lo and hi = ref hi in
  let l = ref !hi in
  let f = ref (excess !l) in
  (* Σx - r at the bracket's ends; at [lo] every rigid flow is 0. *)
  let f_lo = ref (-.r) and f_hi = ref !f in
  let steps = ref 0 in
  let cancel = Sgr_obs.Cancel.handle () in
  while Float.abs !f > tol && (not (narrow !lo !hi)) && !steps < max_level_steps do
    Sgr_obs.Cancel.check_handle cancel;
    Sgr_obs.Obs.incr c_level_steps;
    let rate = if !steps = 0 then (!f -. !f_lo) /. (!hi -. !lo) else flow_rate () in
    incr steps;
    let next = !l -. (!f /. rate) in
    (* Past the last ulp Newton stands still: take that ulp instead. *)
    let next =
      if Float.equal next !l then if !f < 0.0 then Float.succ next else Float.pred next
      else next
    in
    l :=
      if next > !lo && next < !hi then next
      else begin
        Sgr_obs.Obs.incr c_safeguard_steps;
        0.5 *. (!lo +. !hi)
      end;
    f := excess !l;
    if !f < 0.0 then begin
      lo := !l;
      f_lo := !f
    end
    else begin
      hi := !l;
      f_hi := !f
    end
  done;
  (* [l] is one end of the bracket; settle on the end nearer the demand. *)
  let other, f_other = if Float.equal !l !lo then (!hi, !f_hi) else (!lo, !f_lo) in
  if Float.abs f_other < Float.abs !f then begin
    l := other;
    f := excess other
  end;
  let level = !l and e = -. !f in
  (* Who takes the residual e = r - Σxᵢ: the loaded links, plus, when
     flow must be added, the links whose activation point g0 is within a
     few ulps of the level. A link whose gᵢ' is 0 there takes all of it. *)
  let w =
    Array.init n (fun i ->
        if x.(i) > 0.0 then 1.0 /. slope lats.(i) x.(i)
        else if
          e > 0.0 && rigid.(i)
          && Float.abs (g0.(i) -. level) <= 4.0 *. epsilon_float *. Float.abs level
        then 1.0 /. slope lats.(i) 0.0
        else 0.0)
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  (* Some link always counts when e > 0: with nothing loaded, the level
     sits on the cheapest link's activation point. *)
  (match Array.find_index (fun wi -> wi = Float.infinity) w with
  | Some i -> x.(i) <- Tol.clamp_nonneg (x.(i) +. e)
  | None ->
      if total > 0.0 then
        Array.iteri (fun i wi -> x.(i) <- Tol.clamp_nonneg (x.(i) +. (e *. wi /. total))) w);
  { assignment = x; level }

let slope_of criterion lat x =
  match criterion with
  | `Nash -> L.deriv lat x
  | `Opt -> (2.0 *. L.deriv lat x) +. if x > 0.0 then x *. L.deriv2 lat x else 0.0

module Closed_form = Closed_form

let c_fallbacks = Sgr_obs.Obs.counter "links.closed_form.fallbacks"

(* Closed form exactly when every link reduces to a line, so the engine
   is a function of the instance alone. *)
let solve criterion t =
  match Closed_form.solve criterion t.latencies ~demand:t.demand with
  | Some (assignment, level) -> { assignment; level }
  | None ->
      Sgr_obs.Obs.incr c_fallbacks;
      water_level criterion ~solve_rigid:(newton_rigid ~slope:(slope_of criterion)) t

let nash t = solve `Nash t
let opt t = solve `Opt t

let price_of_anarchy t =
  let n = nash t and o = opt t in
  let co = cost t o.assignment in
  let cn = cost t n.assignment in
  (* Same semantics as [Alpha_sweep.ratio_of]: a zero-cost optimum under
     a positive Nash cost is an unbounded PoA, and the guard is a sign
     test rather than an exact float [=] so denormal optima don't slip
     through into the division. *)
  if co > 0.0 then cn /. co else if Float.abs cn <= 1e-12 then 1.0 else Float.infinity

let verify_level ?(eps = Tol.check_eps) ~value t x =
  let n = num_links t in
  let loaded_eps = eps *. Float.max 1.0 t.demand in
  let common = ref Float.neg_infinity in
  (* The common level is the largest criterion value among loaded links. *)
  for i = 0 to n - 1 do
    if x.(i) > loaded_eps then common := Float.max !common (value t.latencies.(i) x.(i))
  done;
  let ok = ref true in
  for i = 0 to n - 1 do
    let v = value t.latencies.(i) x.(i) in
    if x.(i) > loaded_eps then begin
      if not (Tol.approx ~eps v !common) then ok := false
    end
    else if not (Tol.approx_ge ~eps v !common) then ok := false
  done;
  !ok

let verify_nash ?eps t x = verify_level ?eps ~value:L.eval t x
let verify_opt ?eps t x = verify_level ?eps ~value:L.marginal t x

let induced t ~strategy =
  if Array.length strategy <> num_links t then
    invalid_arg "Links.induced: strategy size mismatch";
  if not (Vec.all_nonneg ~eps:1e-9 strategy) then
    invalid_arg "Links.induced: negative leader flow";
  let used = Vec.sum strategy in
  if used > t.demand +. (Tol.check_eps *. Float.max 1.0 t.demand) then
    invalid_arg "Links.induced: strategy exceeds total demand";
  let remaining = Tol.clamp_nonneg (t.demand -. used) in
  let shifted =
    Array.mapi (fun i lat -> L.shift (Tol.clamp_nonneg strategy.(i)) lat) t.latencies
  in
  nash (make shifted ~demand:remaining)

let stackelberg_cost t ~strategy =
  let induced_eq = induced t ~strategy in
  let combined = Vec.add strategy induced_eq.assignment in
  cost t combined

let pp ppf t =
  Format.fprintf ppf "@[<v>%d parallel links, r = %.6g" (num_links t) t.demand;
  Array.iteri (fun i lat -> Format.fprintf ppf "@,  M%d: ℓ(x) = %a" (i + 1) L.pp lat) t.latencies;
  Format.fprintf ppf "@]"
