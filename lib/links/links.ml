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
   the whole demand, where a strictly-increasing link absorbs
   [inverse ℓ l] and a constant link of value [c] absorbs nothing below
   its level and arbitrarily much at it. [value]/[inverse] select the
   criterion: latency for Nash, marginal cost for the optimum. *)
let bisect_level ~value ~inverse t =
  let n = num_links t and r = t.demand in
  let lats = t.latencies in
  let consts = Array.map L.constant_value lats in
  let rigid i = Option.is_none consts.(i) in
  let c_min =
    Array.fold_left
      (fun acc c -> match c with Some c -> Float.min acc c | None -> acc)
      Float.infinity consts
  in
  (* Aggregate demand the strictly-increasing links absorb at level l. *)
  let absorbed l =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      if rigid i then acc := !acc +. inverse lats.(i) l
    done;
    !acc
  in
  let base_level =
    Array.to_list lats
    |> List.mapi (fun i lat -> if rigid i then value lat 0.0 else Option.get consts.(i))
    |> List.fold_left Float.min Float.infinity
  in
  if r <= 0.0 then { assignment = Array.make n 0.0; level = base_level }
  else begin
    let level, flexible_share =
      if c_min < Float.infinity && absorbed c_min < r then begin
        (* The constant links act as an infinite reservoir at [c_min]:
           they soak up whatever the rigid links do not take. *)
        let remainder = r -. absorbed c_min in
        (c_min, remainder)
      end
      else begin
        let hi =
          if c_min < Float.infinity then c_min
          else
            Bisection.expand_upper
              ~start:(Float.max 1.0 (2.0 *. Float.abs base_level))
              ~f:absorbed ~target:r ()
        in
        let level =
          Bisection.solve_increasing ~f:absorbed ~y:r ~lo:base_level ~hi ()
        in
        (level, 0.0)
      end
    in
    let assignment = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if rigid i then assignment.(i) <- Tol.clamp_nonneg (inverse lats.(i) level)
    done;
    if flexible_share > 0.0 then begin
      (* Split evenly among the constant links sitting exactly at the level. *)
      let at_level =
        Array.to_list consts
        |> List.mapi (fun i c -> (i, c))
        |> List.filter_map (fun (i, c) ->
               match c with
               | Some c when Tol.approx ~eps:1e-9 c level -> Some i
               | _ -> None)
      in
      let k = List.length at_level in
      assert (k > 0);
      List.iter (fun i -> assignment.(i) <- flexible_share /. float_of_int k) at_level
    end;
    (* Absorb residual bisection noise so the assignment is exactly feasible:
       spread the (tiny) difference over the loaded links proportionally. *)
    let total = Vec.sum assignment in
    if total > 0.0 then begin
      let correction = r /. total in
      for i = 0 to n - 1 do
        assignment.(i) <- assignment.(i) *. correction
      done
    end;
    { assignment; level }
  end

module Closed_form = Closed_form

let water_fill criterion t =
  match criterion with
  | `Nash -> bisect_level ~value:L.eval ~inverse:L.inverse t
  | `Opt -> bisect_level ~value:L.marginal ~inverse:L.inverse_marginal t

let c_fallbacks = Sgr_obs.Obs.counter "links.closed_form.fallbacks"

(* Closed form exactly when every link reduces to a line, so the engine
   is a function of the instance alone. *)
let solve criterion t =
  match Closed_form.solve criterion t.latencies ~demand:t.demand with
  | Some (assignment, level) -> { assignment; level }
  | None ->
      Sgr_obs.Obs.incr c_fallbacks;
      water_fill criterion t

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
