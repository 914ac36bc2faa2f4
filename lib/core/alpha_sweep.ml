module Links = Sgr_links.Links

type method_used = Exact_threshold | Linear_exact | Grid_search | Heuristic_upper_bound

type point = { alpha : float; ratio : float; method_used : method_used }
type curve = { beta : float; points : point list }

let ratio_of ~opt_cost cost =
  if opt_cost > 0.0 then cost /. opt_cost
  else if Float.abs cost <= 1e-12 then 1.0
  else Float.infinity

(* The most α samples one curve takes: a 0.001 grid on [0, 1]. *)
let max_samples = 1001

(* How the points below β are computed, fixed by the instance: Theorem
   2.4's solver on common-slope lines, grid search on at most 6 links,
   and otherwise the better of LLF and SCALE. LLF's order depends only
   on the optimum, so it is prepared here, once per curve. *)
type below = Thm24 | Grid | Heuristic of Strategies.prepared

let below_of instance ~optimum =
  if Linear_exact.is_common_slope instance then Thm24
  else if Links.num_links instance <= 6 then Grid
  else Heuristic (Strategies.prepare instance ~optimum)

(* One α evaluated against a precomputed OpTop result. Shared by the
   full sweep and the single-point entry so a served `sweep` query and a
   sweep sample at the same α are byte-identical. No per-point Obs.span
   here: this runs on pool workers, where spans are dropped, so a span
   would make the recorded trace depend on the job count and break PR
   3's jobs-invariant observability guarantee. *)
let point_of ~beta ~optimum ~opt_cost ~grid_resolution instance below alpha =
  let ratio_of cost = ratio_of ~opt_cost cost in
  if alpha >= beta -. 1e-12 then { alpha; ratio = 1.0; method_used = Exact_threshold }
  else
    match below with
    | Thm24 ->
        let r = Linear_exact.solve instance ~alpha in
        { alpha; ratio = ratio_of r.Linear_exact.induced_cost; method_used = Linear_exact }
    | Grid ->
        let r = Brute_force.optimal_strategy ~resolution:grid_resolution instance ~alpha in
        { alpha; ratio = ratio_of r.Brute_force.induced_cost; method_used = Grid_search }
    | Heuristic order ->
        let llf = Strategies.llf_prepared ~opt_cost order ~alpha in
        let scale = Strategies.scale ~opt_cost instance ~optimum ~alpha in
        let best = Float.min llf.Strategies.induced_cost scale.Strategies.induced_cost in
        { alpha; ratio = ratio_of best; method_used = Heuristic_upper_bound }

let at ?(grid_resolution = 32) instance ~alpha =
  if not (0.0 <= alpha && alpha <= 1.0) then invalid_arg "Alpha_sweep.at: alpha not in [0, 1]";
  let optop = Optop.run instance in
  let optimum = optop.Optop.optimum in
  point_of ~beta:optop.Optop.beta ~optimum ~opt_cost:optop.Optop.optimum_cost ~grid_resolution
    instance (below_of instance ~optimum) alpha

let range ?jobs ?(grid_resolution = 32) instance ~lo ~hi ~samples =
  if samples < 2 || samples > max_samples then
    invalid_arg (Printf.sprintf "Alpha_sweep.range: need 2 <= samples <= %d" max_samples);
  if not (0.0 <= lo && lo <= hi && hi <= 1.0) then
    invalid_arg "Alpha_sweep.range: need 0 <= lo <= hi <= 1";
  Sgr_obs.Obs.span "alpha_sweep.run" @@ fun () ->
  let optop = Optop.run instance in
  let beta = optop.Optop.beta in
  let opt_cost = optop.Optop.optimum_cost in
  let optimum = optop.Optop.optimum in
  let below = below_of instance ~optimum in
  let point_at alpha = point_of ~beta ~optimum ~opt_cost ~grid_resolution instance below alpha in
  (* Each α point is independent; results are collected by index, so the
     curve is identical at any job count. *)
  let alphas =
    Array.init samples (fun k ->
        lo +. ((hi -. lo) *. (float_of_int k /. float_of_int (samples - 1))))
  in
  let points = Array.to_list (Sgr_par.Pool.map ?jobs point_at alphas) in
  { beta; points }

let run ?jobs ?(samples = 21) ?(grid_resolution = 32) instance =
  range ?jobs ~grid_resolution instance ~lo:0.0 ~hi:1.0 ~samples

let pigou_closed_form alpha =
  if alpha >= 0.5 then 1.0
  else begin
    (* The best the Leader can do is park her entire αr on the constant
       link; the Followers then equalize on the linear link alone. *)
    let cost = ((1.0 -. alpha) ** 2.0) +. alpha in
    cost /. 0.75
  end
