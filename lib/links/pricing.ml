(* Best-response toll pricing on parallel affine links (the
   Goldberg–Polpinit parallel-link pricing game).

   Each link is owned by a distinct profit-maximizing firm that charges a
   toll τᵢ >= 0; the infinite population of users then splits the demand
   selfishly under the tolled latencies ℓᵢ(x) + τᵢ, which stay lines, so
   every probe is one [Links.solve_lines]. Owner i's payoff is the
   revenue τᵢ·xᵢ(τ). The solver runs cyclic best-response dynamics: each
   owner in turn maximizes its revenue against the others' current tolls
   (coarse grid scan + golden-section refinement over [0, τᵢᵐᵃˣ], where
   τᵢᵐᵃˣ prices the link out of the market), until a full round moves no
   toll by more than the tolerance. A fixed point is a pure Nash
   equilibrium of the pricing game up to the search resolution. *)

module Tol = Sgr_numerics.Tolerance
module Vec = Sgr_numerics.Vec
module Obs = Sgr_obs.Obs

type result = {
  tolls : float array;
  flow : float array;
  level : float;
  revenues : float array;
  user_cost : float;
  rounds : int;
  converged : bool;
}

let c_rounds = Obs.counter "links.pricing.rounds"
let c_probes = Obs.counter "links.pricing.probes"

let golden = 0.5 *. (Float.sqrt 5.0 -. 1.0)

let best_response ?(max_rounds = 64) ?(tol = 1e-9) (t : Links.t) =
  let n = Links.num_links t in
  if n < 2 then
    invalid_arg "Pricing.best_response: a monopolist prices unboundedly; need >= 2 links";
  let slopes = Array.make n 0.0 and intercepts = Array.make n 0.0 in
  Array.iteri
    (fun i lat ->
      match Links.line lat with
      | Some (a, b) when a > 0.0 ->
          slopes.(i) <- a;
          intercepts.(i) <- b
      | Some _ ->
          invalid_arg
            "Pricing.best_response: a constant-latency link has no best response (drop it)"
      | None -> invalid_arg "Pricing.best_response: latencies must be affine")
    t.Links.latencies;
  let r = t.Links.demand in
  let tolls = Array.make n 0.0 in
  (* The lines under the current tolls, with link i's toll at [tau]
     (i = -1: every toll current). Every probe reuses two buffers: the
     tolled intercepts, and the slopes [Links.solve_lines] overwrites. *)
  let tolled = Array.make n 0.0 and scratch = Array.make n 0.0 in
  let solve_tolled i tau =
    for j = 0 to n - 1 do
      tolled.(j) <- (intercepts.(j) +. if j = i then tau else tolls.(j))
    done;
    Array.blit slopes 0 scratch 0 n;
    Links.solve_lines ~slopes:scratch ~intercepts:tolled ~demand:r
  in
  let equilibrium () = solve_tolled (-1) 0.0 in
  if r <= 0.0 then begin
    let { Links.assignment = flow; level } = equilibrium () in
    {
      tolls;
      flow;
      level;
      revenues = Array.make n 0.0;
      user_cost = 0.0;
      rounds = 0;
      converged = true;
    }
  end
  else begin
    let revenue i tau =
      Obs.incr c_probes;
      tau *. (solve_tolled i tau).assignment.(i)
    in
    (* The level of the market without link i (under the others' current
       tolls): any toll pushing bᵢ + τ to that level prices the link out,
       so it brackets the best response. *)
    let toll_ceiling i =
      let ss = Array.make (n - 1) 0.0 and bs = Array.make (n - 1) 0.0 in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          ss.(!k) <- slopes.(j);
          bs.(!k) <- intercepts.(j) +. tolls.(j);
          incr k
        end
      done;
      let rest = Links.solve_lines ~slopes:ss ~intercepts:bs ~demand:r in
      Tol.clamp_nonneg (rest.level -. intercepts.(i))
    in
    let best_toll i =
      let hi = toll_ceiling i in
      if hi <= 0.0 then 0.0
      else begin
        let f = revenue i in
        (* Coarse scan first: the revenue curve is piecewise quadratic
           (kinks where the user equilibrium's active set changes), so a
           grid locates the right piece before golden-section polishes
           within it. *)
        let grid = 32 in
        let at k = hi *. float_of_int k /. float_of_int grid in
        let best_k = ref 0 and best_v = ref Float.neg_infinity in
        for k = 0 to grid do
          let v = f (at k) in
          if v > !best_v then begin
            best_v := v;
            best_k := k
          end
        done;
        let a = ref (at (Int.max 0 (!best_k - 1))) in
        let b = ref (at (Int.min grid (!best_k + 1))) in
        let x1 = ref (!b -. (golden *. (!b -. !a)))
        and x2 = ref (!a +. (golden *. (!b -. !a))) in
        let f1 = ref (f !x1) and f2 = ref (f !x2) in
        for _ = 1 to 48 do
          if !f1 < !f2 then begin
            a := !x1;
            x1 := !x2;
            f1 := !f2;
            x2 := !a +. (golden *. (!b -. !a));
            f2 := f !x2
          end
          else begin
            b := !x2;
            x2 := !x1;
            f2 := !f1;
            x1 := !b -. (golden *. (!b -. !a));
            f1 := f !x1
          end
        done;
        let refined = 0.5 *. (!a +. !b) in
        if f refined >= !best_v then refined else at !best_k
      end
    in
    let rounds = ref 0 and converged = ref false in
    while (not !converged) && !rounds < max_rounds do
      incr rounds;
      Obs.incr c_rounds;
      let moved = ref 0.0 in
      for i = 0 to n - 1 do
        let next = best_toll i in
        moved := Float.max !moved (Float.abs (next -. tolls.(i)));
        tolls.(i) <- next
      done;
      let scale = Array.fold_left Float.max 1.0 tolls in
      if !moved <= tol *. scale then converged := true
    done;
    let { Links.assignment = flow; level } = equilibrium () in
    let revenues = Array.mapi (fun i x -> tolls.(i) *. x) flow in
    { tolls; flow; level; revenues; user_cost = Links.cost t flow; rounds = !rounds; converged = !converged }
  end

(* Price of leadership-by-pricing: tolled user cost against the
   untolled optimum (both priced by the original latencies; tolls are
   transfers). *)
let price_of_pricing t result =
  let opt_cost = Links.cost t (Links.opt t).assignment in
  if opt_cost > 0.0 then result.user_cost /. opt_cost
  else if Float.abs result.user_cost <= 1e-12 then 1.0
  else Float.infinity

let pp ppf r =
  Format.fprintf ppf
    "@[<v>tolls     = %a@,flow      = %a@,revenues  = %a@,level     = %.6g@,user cost = \
     %.6g@,rounds    = %d (%s)@]"
    Vec.pp r.tolls Vec.pp r.flow Vec.pp r.revenues r.level r.user_cost r.rounds
    (if r.converged then "converged" else "round budget exhausted")
