module Links = Sgr_links.Links

type point = { demand : float; beta : float; poa : float }

let run ?(samples = 21) instance ~r_lo ~r_hi =
  if not (0.0 <= r_lo && r_lo <= r_hi) then invalid_arg "Beta_profile.run: bad demand range";
  if samples < 2 || samples > Alpha_sweep.max_samples then
    invalid_arg
      (Printf.sprintf "Beta_profile.run: need 2 <= samples <= %d" Alpha_sweep.max_samples);
  List.init samples (fun k ->
      let demand =
        r_lo +. ((r_hi -. r_lo) *. float_of_int k /. float_of_int (samples - 1))
      in
      if demand <= 0.0 then { demand; beta = 0.0; poa = 1.0 }
      else begin
        let t = Links.with_demand instance demand in
        let r = Optop.run t in
        { demand; beta = r.Optop.beta; poa = Links.price_of_anarchy t }
      end)

let pigou_closed_form r = if r <= 0.5 then 0.0 else 1.0 -. (1.0 /. (2.0 *. r))
