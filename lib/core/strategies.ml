module Links = Sgr_links.Links
module L = Sgr_latency.Latency

type outcome = { strategy : float array; induced_cost : float; ratio_to_opt : float }

let evaluate ?opt_cost instance ~optimum ~strategy =
  let induced_cost = Links.stackelberg_cost instance ~strategy in
  let opt_cost = match opt_cost with Some c -> c | None -> Links.cost instance optimum in
  (* Same semantics as [Alpha_sweep.ratio_of]: a vanishing optimum with
     a genuinely positive induced cost is an unbounded ratio, not 1; the
     old exact [opt_cost = 0.0] test also exploded on denormal optima. *)
  let ratio_to_opt =
    if opt_cost > 0.0 then induced_cost /. opt_cost
    else if Float.abs induced_cost <= 1e-12 then 1.0
    else Float.infinity
  in
  { strategy; induced_cost; ratio_to_opt }

let check_alpha alpha =
  if not (0.0 <= alpha && alpha <= 1.0) then invalid_arg "Strategies: alpha must be in [0, 1]"

let llf ?opt_cost instance ~optimum:opt ~alpha =
  check_alpha alpha;
  let m = Links.num_links instance in
  let order = Array.init m (fun i -> i) in
  (* Decreasing latency at the optimum; stable on ties by index. Each
     latency is evaluated once, so the work does not depend on the
     order the links come in. *)
  let lat = Array.init m (fun i -> L.eval instance.Links.latencies.(i) opt.(i)) in
  Array.sort
    (fun i j -> match Float.compare lat.(j) lat.(i) with 0 -> Int.compare i j | c -> c)
    order;
  let budget = ref (alpha *. instance.Links.demand) in
  let strategy = Array.make m 0.0 in
  Array.iter
    (fun i ->
      let take = Float.min !budget opt.(i) in
      strategy.(i) <- take;
      budget := !budget -. take)
    order;
  evaluate ?opt_cost instance ~optimum:opt ~strategy

let scale ?opt_cost instance ~optimum ~alpha =
  check_alpha alpha;
  evaluate ?opt_cost instance ~optimum ~strategy:(Array.map (fun o -> alpha *. o) optimum)

let aloof instance =
  evaluate instance ~optimum:(Links.opt instance).assignment
    ~strategy:(Array.make (Links.num_links instance) 0.0)
