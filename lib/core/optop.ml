module Links = Sgr_links.Links
module Vec = Sgr_numerics.Vec
module Obs = Sgr_obs.Obs

let c_rounds = Obs.counter "optop.rounds"

type round = {
  active : int array;
  demand : float;
  nash : float array;
  optimum : float array;
  frozen : int array;
}

type result = {
  beta : float;
  strategy : float array;
  rounds : round list;
  optimum : float array;
  optimum_cost : float;
  nash_cost : float;
  induced_cost : float;
}

let run ?(eps = 1e-8) instance =
  Obs.span "optop.solve" @@ fun () ->
  let m = Links.num_links instance in
  let r0 = instance.Links.demand in
  let opt = (Links.opt instance).assignment in
  let scale = Float.max 1.0 r0 in
  let strategy = Array.make m 0.0 in
  let rounds = ref [] in
  (* [active] and [r] shrink as under-loaded links are frozen at their
     optimal load and discarded (paper steps 2–4). *)
  let rec loop active r =
    if Array.length active = 0 || r <= eps *. scale then ()
    else begin
      (* Each freeze round solves a Nash subproblem; a request deadline
         must be able to pre-empt the round loop between them. *)
      Sgr_obs.Cancel.check ();
      Obs.incr c_rounds;
      let keep = Array.make m false in
      Array.iter (fun i -> keep.(i) <- true) active;
      let sub, index_map = Links.sub instance ~keep ~demand:r in
      let nash = (Links.nash sub).assignment in
      let opt_here = Array.map (fun i -> opt.(i)) index_map in
      let frozen = ref [] in
      Array.iteri
        (fun j i -> if nash.(j) < opt_here.(j) -. (eps *. scale) then frozen := i :: !frozen)
        index_map;
      let frozen = Array.of_list (List.rev !frozen) in
      rounds :=
        { active = Array.copy active; demand = r; nash; optimum = opt_here; frozen }
        :: !rounds;
      if Array.length frozen > 0 then begin
        Array.iter (fun i -> strategy.(i) <- opt.(i)) frozen;
        let removed = Array.fold_left (fun acc i -> acc +. opt.(i)) 0.0 frozen in
        let active' =
          Array.of_list
            (List.filter (fun i -> not (Array.mem i frozen)) (Array.to_list active))
        in
        loop active' (r -. removed)
      end
    end
  in
  loop (Array.init m (fun i -> i)) r0;
  let controlled = Vec.sum strategy in
  let beta = if r0 > 0.0 then controlled /. r0 else 0.0 in
  let rounds = List.rev !rounds in
  (* Round 1, when it runs, solves every link at demand r₀: the whole
     game, whose Nash it already holds. *)
  let nash = match rounds with first :: _ -> first.nash | [] -> (Links.nash instance).assignment in
  {
    beta;
    strategy;
    rounds;
    optimum = opt;
    optimum_cost = Links.cost instance opt;
    nash_cost = Links.cost instance nash;
    induced_cost = Links.stackelberg_cost instance ~strategy;
  }

let beta ?eps instance = (run ?eps instance).beta
