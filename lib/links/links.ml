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

(* The line test: true when [kind] is exactly ℓ(x) = a·x + b on x >= 0
   (a = 0 for constants), writing a and b into slot [i] (no allocation
   per link). [Shifted] composes: base(s + x) = a·x + (a·s + b). A
   polynomial is a line when no stored coefficient past the linear one
   is nonzero, however small. *)
let rec line_into kind (slopes : float array) (intercepts : float array) i =
  match kind with
  | L.Constant c ->
      slopes.(i) <- 0.0;
      intercepts.(i) <- c;
      true
  | L.Affine { slope; intercept } ->
      slopes.(i) <- slope;
      intercepts.(i) <- intercept;
      true
  | L.Polynomial coeffs ->
      let m = Array.length coeffs and higher = ref false in
      for j = 2 to m - 1 do
        if (coeffs.(j) <> 0.0) [@lint.allow "float-equality"] then higher := true
      done;
      slopes.(i) <- (if m > 1 then coeffs.(1) else 0.0);
      intercepts.(i) <- (if m > 0 then coeffs.(0) else 0.0);
      not !higher
  | L.Shifted { offset; base } ->
      line_into base slopes intercepts i
      && begin
           intercepts.(i) <- intercepts.(i) +. (slopes.(i) *. offset);
           true
         end
  | L.Mm1 _ | L.Bpr _ | L.Custom _ -> false
(* why: structural recursion on the [Shifted] nesting of one latency
   kind — depth is fixed by the instance description, not the demand,
   so the recursion terminates in a handful of frames. *)
[@@lint.allow "cancel-coverage"]

(* The line test of [Latency.shift offsets.(i)] of a latency of kind
   [kind], with no latency built: [shift] is the identity at 0 and
   otherwise sums the offsets into one [Shifted] node. *)
let line_at kind offsets slopes intercepts i =
  let s = offsets.(i) in
  (* Exact test by design, as [shift]'s. *)
  if (s = 0.0) [@lint.allow "float-equality"] then line_into kind slopes intercepts i
  else
    let base = match kind with L.Shifted { base; _ } -> base | _ -> kind in
    let offset = match kind with L.Shifted { offset; _ } -> s +. offset | _ -> s in
    line_into base slopes intercepts i
    && begin
         intercepts.(i) <- intercepts.(i) +. (slopes.(i) *. offset);
         true
       end

let line lat =
  let a = [| 0.0 |] and b = [| 0.0 |] in
  if line_into (L.kind lat) a b 0 then Some (a.(0), b.(0)) else None

let cannot_carry r =
  (failwith (Printf.sprintf "Links: the links cannot carry demand %g at any finite level" r))
  [@lint.allow "no-untyped-failure"]

(* The constant links at the reservoir's level [c_min] split [remainder]
   evenly ([value i] is link i's constant). *)
let share_reservoir x ~is_constant ~value ~c_min remainder =
  let at_level i = is_constant i && Tol.approx ~eps:1e-9 (value i) c_min in
  let k = ref 0 in
  Array.iteri (fun i _ -> if at_level i then incr k) x;
  assert (!k > 0);
  Array.iteri (fun i _ -> if at_level i then x.(i) <- remainder /. float_of_int !k) x

(* The reference water-fill: find the minimal level [l] at which the
   links can absorb the whole demand, where a strictly-increasing
   ("rigid") link absorbs [inverse ℓ l] and a constant link of value [c]
   absorbs nothing below its level and arbitrarily much at it. The
   criterion is the latency for Nash and the marginal cost for the
   optimum. The constant links act as a reservoir; otherwise bisect the
   level to [4·ε_mach] between the cheapest activation point and an
   expanded top and invert every link there. *)
let water_level criterion t =
  let value, inverse =
    match criterion with `Nash -> (L.eval, L.inverse) | `Opt -> (L.marginal, L.inverse_marginal)
  in
  let n = num_links t and r = t.demand in
  let lats = t.latencies in
  let consts = Array.map L.constant_value lats in
  let rigid = Array.map Option.is_none consts in
  let g0 = Array.mapi (fun i c -> match c with Some c -> c | None -> value lats.(i) 0.0) consts in
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
    let assignment = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if rigid.(i) then assignment.(i) <- Tol.clamp_nonneg (inverse lats.(i) c_min)
    done;
    share_reservoir assignment
      ~is_constant:(fun i -> not rigid.(i))
      ~value:(fun i -> g0.(i))
      ~c_min (r -. absorbed c_min);
    { assignment; level = c_min }
  end
  else begin
    let hi =
      if c_min < Float.infinity then c_min
      else
        match
          Bisection.expand_upper
            ~start:(Float.max 1.0 (2.0 *. Float.abs base_level))
            ~f:absorbed ~target:r ()
        with
        | hi -> hi
        (* No level up to 1e18 absorbs the demand (or a link's inverse failed). *)
        | exception Failure _ -> cannot_carry r
    in
    let level =
      Bisection.solve_increasing ~tol:(4.0 *. epsilon_float) ~f:absorbed ~y:r ~lo:base_level ~hi ()
    in
    let assignment =
      Array.mapi
        (fun i lat -> if rigid.(i) then Tol.clamp_nonneg (inverse lat level) else 0.0)
        lats
    in
    { assignment; level }
  end

let water_fill criterion t =
  let sol = water_level criterion t in
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

(* Far more level steps than a curve solve takes (the worst nash or opt
   over 50,000 random polynomial games takes 39); a solve on lines may
   take one more per rigid link. *)
let max_level_steps = 200

(* The loop stops once the flows sum to the demand within this. *)
let level_tol r = if r > 1.0 then 1e-13 *. r else 1e-13

(* Within a few ulps of [level]. *)
let near_level g0 level = Float.abs (g0 -. level) <= 4.0 *. epsilon_float *. Float.abs level

(* The engine: safeguarded Newton on the level. The rigid links' total
   flow Σxᵢ(l) rises with l at rate Σ 1/gᵢ'(xᵢ) over the loaded links
   (gᵢ' is ℓ' for Nash, 2ℓ' + xℓ'' for the optimum). [pass ~top l]
   leaves the flows at level l in the caller's array and returns
   Σxᵢ(l) - r, given the bracket's top; [rate ()] is dΣx/dl there. The
   caller has run the pass at [hi], whose Σx - r is [f_hi]. No
   rigid link is loaded at [lo]. Each step is a Newton step (with
   [~secant:true] the first is the secant from (lo, -r) to (hi, Σx - r)),
   or bisection when it leaves the bracket. It stops once the flows sum
   to the demand within [level_tol] or the bracket is a few ulps wide,
   and returns the level and Σx - r there. *)
let newton_level ~r ~pass ~rate ~secant ~max_steps ~lo ~hi ~f_hi =
  let tol = level_tol r in
  let narrow lo hi =
    let a = Float.abs lo and b = Float.abs hi in
    hi -. lo <= 4.0 *. epsilon_float *. if a >= b then a else b
  in
  let lo = ref lo and hi = ref hi in
  let l = ref !hi in
  let f = ref f_hi in
  (* Σx - r at the bracket's ends; at [lo] every rigid flow is 0. *)
  let f_lo = ref (-.r) and f_hi = ref !f in
  let steps = ref 0 and safeguards = ref 0 in
  let cancel = Sgr_obs.Cancel.handle () in
  while Float.abs !f > tol && (not (narrow !lo !hi)) && !steps < max_steps do
    Sgr_obs.Cancel.check_handle cancel;
    let rate = if secant && !steps = 0 then (!f -. !f_lo) /. (!hi -. !lo) else rate () in
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
        incr safeguards;
        0.5 *. (!lo +. !hi)
      end;
    f := pass ~top:!hi !l;
    if !f < 0.0 then (lo := !l; f_lo := !f) else (hi := !l; f_hi := !f)
  done;
  if !steps > 0 then Sgr_obs.Obs.add c_level_steps !steps;
  if !safeguards > 0 then Sgr_obs.Obs.add c_safeguard_steps !safeguards;
  (* [l] is one end of the bracket; settle on the end nearer the demand. *)
  let other, f_other = if Float.equal !l !lo then (!hi, !f_hi) else (!lo, !f_lo) in
  if Float.abs f_other < Float.abs !f then begin
    l := other;
    f := pass ~top:!hi other
  end;
  (!l, !f)

(* [Tol.clamp_nonneg], inlined: a cross-module call boxes the float. *)
let[@inline] clamp v = if v > 0.0 || Float.is_nan v then v else 0.0

(* What is left of the demand, e = r - Σxᵢ, is the part float precision
   cannot resolve the level for. It goes to the links [idx.(0 .. k-1)]
   (links 0 .. k-1 when [idx] is empty) by their weights [w] (dxᵢ/dl:
   the loaded links and, when flow must be added, those whose
   activation point is within a few ulps of the level), which moves
   every link's level alike, so no Wardrop (or marginal-cost) equality
   breaks. A link whose gᵢ' is 0 takes all of it. With nothing loaded
   the level sits on the cheapest activation point, so some link always
   counts when e > 0. *)
let place_residual x (w : float array) e idx k =
  let all = Array.length idx = 0 in
  let total = ref 0.0 and steep = ref (-1) in
  for j = 0 to k - 1 do
    let i = if all then j else idx.(j) in
    let wi = w.(i) in
    total := !total +. wi;
    if !steep < 0 && wi = Float.infinity then steep := i
  done;
  if !steep >= 0 then x.(!steep) <- clamp (x.(!steep) +. e)
  else if !total > 0.0 then
    for j = 0 to k - 1 do
      let i = if all then j else idx.(j) in
      if w.(i) > 0.0 then x.(i) <- clamp (x.(i) +. (e *. w.(i) /. !total))
    done

let c_expansions = Sgr_obs.Obs.counter "bisection.expansions"

(* [Bisection.expand_upper] on the rigid entries' flows: double the top
   from [start] until they absorb [r], up to 1e18. Returns the top and
   the flows' sum there, with the flows in [x]. *)
let expand_top lats ~offsets ~marginal x ~r ~start =
  let hi = ref (Float.max start 1e-12) in
  match
    let absorbed = ref (L.Kernels.flows lats ~offsets ~marginal !hi ~into:x) in
    while !absorbed < r && !hi < 1e18 do
      Sgr_obs.Cancel.check ();
      Sgr_obs.Obs.incr c_expansions;
      hi := !hi *. 2.0;
      absorbed := L.Kernels.flows lats ~offsets ~marginal !hi ~into:x
    done;
    !absorbed
  with
  | absorbed -> if absorbed < r then cannot_carry r else (!hi, absorbed)
  (* A bisection inverse failed. *)
  | exception Failure _ -> cannot_carry r

(* Newton on curves, on the latencies at [offsets]: a pass is
   [Latency.Kernels.flows] at the level, the rate
   [Latency.Kernels.rates]. [b] holds the line links' intercepts (nan for
   the curves), their activation points with no evaluation; the line
   links keep their [Latency.inverse] entries, whose last bit differs
   from (l - b)·(1/a). [w] is scratch. The constant links act as a
   reservoir at the cheapest one's level [c_min]: when the rigid links
   absorb less than [r] there, the constants soak up the rest. *)
let newton_curves criterion lats ~offsets ~w ~b r =
  let n = Array.length lats in
  let marginal = match criterion with `Nash -> false | `Opt -> true in
  let g0 = Array.make n 0.0 in
  L.Kernels.activations lats ~offsets ~marginal ~lines:b ~into:g0;
  let c_min = ref Float.infinity and base_level = ref Float.infinity in
  for i = 0 to n - 1 do
    if L.is_constant lats.(i) then c_min := Float.min !c_min g0.(i);
    base_level := Float.min !base_level g0.(i)
  done;
  let c_min = !c_min and base_level = !base_level in
  let x = Array.make n 0.0 in
  if r <= 0.0 then { assignment = x; level = base_level }
  else
    (* The rigid links' flows at the reservoir's level; nan, which is no
       reservoir, when there is no constant link. *)
    let absorbed =
      if c_min < Float.infinity then L.Kernels.flows lats ~offsets ~marginal c_min ~into:x
      else Float.nan
    in
    if absorbed < r then begin
      share_reservoir x
        ~is_constant:(fun i -> L.is_constant lats.(i))
        ~value:(fun i -> g0.(i))
        ~c_min (r -. absorbed);
      { assignment = x; level = c_min }
    end
    else begin
      (* The top of the bracket, with the flows there in [x]. *)
      let hi, absorbed =
        if c_min < Float.infinity then (c_min, absorbed)
        else
          expand_top lats ~offsets ~marginal x ~r
            ~start:(Float.max 1.0 (2.0 *. Float.abs base_level))
      in
      let pass ~top:_ l = L.Kernels.flows lats ~offsets ~marginal l ~into:x -. r in
      let rate () = L.Kernels.rates lats ~offsets ~marginal x ~into:w in
      let level, f =
        newton_level ~r ~pass ~rate ~secant:true ~max_steps:max_level_steps ~lo:base_level ~hi
          ~f_hi:(absorbed -. r)
      in
      let e = -.f in
      ignore (rate ());
      if e > 0.0 then
        for i = 0 to n - 1 do
          if (not (x.(i) > 0.0)) && (not (L.is_constant lats.(i))) && near_level g0.(i) level then
            w.(i) <- L.Kernels.rate lats ~offsets ~marginal i 0.0
        done;
      place_residual x w e [||] n;
      { assignment = x; level }
    end

(* Newton on lines gᵢ(x) = bᵢ + aᵢx/k (k = 1 for latencies, 1/2 for
   marginal costs): [w] holds the slopes aᵢ (0 for a constant of value
   bᵢ) and is overwritten with the rates wᵢ = k/aᵢ = 1/gᵢ'. The solve
   starts at the all-active root L₀ = (r + Σ bᵢwᵢ) / Σ wᵢ, or at the
   reservoir's level when lower; each pass runs over the candidates,
   the rigid links with bᵢ below the bracket's top (or a few ulps above,
   so they hold every link the residual may load), and drops the rest
   for good. A Newton step from l is then the water level of the links
   loaded at l, so the steps fall until the loaded set holds. A demand
   within the tolerance stays at the cheapest activation point, where
   the residual placement loads it (L₀ can round a few ulps under it). *)
let fill_lines ~k ~w ~b r =
  let n = Array.length w in
  let x = Array.make n 0.0 and idx = Array.make n 0 in
  let base = ref Float.infinity and c_min = ref Float.infinity in
  let sw = ref 0.0 and sbw = ref 0.0 and nr = ref 0 in
  for i = 0 to n - 1 do
    let bi = b.(i) in
    if bi < !base then base := bi;
    if w.(i) > 0.0 then begin
      let wi = k /. w.(i) in
      w.(i) <- wi;
      idx.(!nr) <- i;
      incr nr;
      sw := !sw +. wi;
      sbw := !sbw +. (bi *. wi)
    end
    else if bi < !c_min then c_min := bi
  done;
  let base = !base and c_min = !c_min in
  let candidates = ref !nr and rate = ref 0.0 in
  let pass ~top l =
    let cut = top +. (4.0 *. epsilon_float *. Float.abs top) in
    let s = ref 0.0 and dl = ref 0.0 and k = ref 0 in
    for j = 0 to !candidates - 1 do
      let i = idx.(j) in
      let bi = b.(i) in
      if bi <= cut then begin
        idx.(!k) <- i;
        incr k;
        let xi = (l -. bi) *. w.(i) in
        if xi > 0.0 then begin
          x.(i) <- xi;
          s := !s +. xi;
          dl := !dl +. w.(i)
        end
        else x.(i) <- 0.0
      end
      else x.(i) <- 0.0
    done;
    candidates := !k;
    rate := !dl;
    !s -. r
  in
  if r <= 0.0 then { assignment = x; level = base }
  else
    let f_reservoir = if c_min < Float.infinity then pass ~top:Float.infinity c_min else 0.0 in
    if f_reservoir < 0.0 then begin
      share_reservoir x
        ~is_constant:(fun i -> not (w.(i) > 0.0))
        ~value:(fun i -> b.(i))
        ~c_min (-.f_reservoir);
      { assignment = x; level = c_min }
    end
    else begin
      let root = (r +. !sbw) /. !sw in
      let hi = if r <= level_tol r || root < base then base else Float.min root c_min in
      let level, f =
        newton_level ~r ~pass
          ~rate:(fun () -> !rate)
          ~secant:false ~max_steps:(max_level_steps + !nr) ~lo:base ~hi ~f_hi:(pass ~top:hi hi)
      in
      let e = -.f in
      for j = 0 to !candidates - 1 do
        let i = idx.(j) in
        if not (x.(i) > 0.0 || (e > 0.0 && near_level b.(i) level)) then w.(i) <- 0.0
      done;
      place_residual x w e idx !candidates;
      { assignment = x; level }
    end

let solve_lines ~slopes ~intercepts ~demand = fill_lines ~k:1.0 ~w:slopes ~b:intercepts demand

(* The instance picks the passes: lines when every link is one, so the
   engine is a function of the instance alone, and the level kernels
   over the curves otherwise. Link i is [Latency.shift offsets.(i)] of
   [lats.(i)] (the latency itself with no [offsets]), with no shifted
   latency built. *)
let solve criterion lats ?offsets r =
  let n = Array.length lats in
  let w = Array.make n 0.0 and b = Array.make n 0.0 in
  let curves = ref 0 in
  for i = 0 to n - 1 do
    let kind = L.kind lats.(i) in
    let line =
      match offsets with
      | None -> line_into kind w b i
      | Some offsets -> line_at kind offsets w b i
    in
    if not line then begin
      b.(i) <- Float.nan;
      incr curves
    end
  done;
  if !curves = 0 then
    (* The optimum's marginal cost 2a·x + b has the latency's intercept
       on twice its slope. *)
    fill_lines ~k:(match criterion with `Nash -> 1.0 | `Opt -> 0.5) ~w ~b r
  else
    let offsets = match offsets with Some o -> o | None -> Array.make n 0.0 in
    newton_curves criterion lats ~offsets ~w ~b r

let nash t = solve `Nash t.latencies t.demand
let opt t = solve `Opt t.latencies t.demand

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
  let offsets = Array.make (num_links t) 0.0 in
  Array.iteri (fun i s -> offsets.(i) <- clamp s) strategy;
  solve `Nash t.latencies ~offsets remaining

let stackelberg_cost t ~strategy =
  let induced_eq = induced t ~strategy in
  let acc = ref 0.0 in
  Array.iteri
    (fun i lat -> acc := !acc +. L.cost lat (strategy.(i) +. induced_eq.assignment.(i)))
    t.latencies;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>%d parallel links, r = %.6g" (num_links t) t.demand;
  Array.iteri (fun i lat -> Format.fprintf ppf "@,  M%d: ℓ(x) = %a" (i + 1) L.pp lat) t.latencies;
  Format.fprintf ppf "@]"
