(* Inputs of every workload, made from the benchmark seed.

   Each workload runs on one instance whose structure is pinned by a
   constant generator seed. On random instances of one size, solve cost
   varies 5-20x from one draw to the next (LLF on 6x6 grids: 1.2 to
   52 ms; Frank-Wolfe on 10^4-edge cities: 17 to 94 iterations), so a
   benchmark seed that redrew the instance would measure the draw, not
   the code. The benchmark seed instead relabels the instance, by
   reordering its commodity or link lines, which leaves the work
   unchanged, and it fixes the request sequence: the α values, and the
   order of the request mix. *)

module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module IF = Sgr_io.Instance_file

(* Canonical instance text (hex floats, so parsing is bit-exact) with
   the lines that start with [prefix] shuffled by [seed]. *)
let relabel ~seed ~prefix inst =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' (IF.to_string inst)) in
  let fixed, movable = List.partition (fun l -> not (String.starts_with ~prefix l)) lines in
  let movable = Array.of_list movable in
  Prng.shuffle (Prng.create seed) movable;
  String.concat "\n" (fixed @ Array.to_list movable) ^ "\n"

(* city-assign: the 10^4-edge tier of the synthetic city (as in the
   T13 timing group), 32 commodities. *)
let city_text ~seed =
  let net = W.synthetic_city (Prng.create 13_025) ~rings:25 ~radials:100 ~commodities:32 () in
  relabel ~seed ~prefix:"commodity " (IF.Network net)

(* links-sweep: ten random polynomial links. *)
let links_text ~seed =
  let t = W.random_polynomial_links (Prng.create 1) ~m:10 ~demand:1.0 () in
  relabel ~seed ~prefix:"link " (IF.Links t)

(* serve-induced and the grid of the serve-hit mix: a 6x6 BPR grid
   whose LLF solve costs 5-6 ms at every α. *)
let grid_text () = IF.to_string (IF.Network (W.grid_network (Prng.create 8) ~rows:6 ~cols:6 ()))

(* A never-repeating α sequence: the golden-ratio walk from a
   seed-drawn start. Printed with all 17 digits, so no two requests
   share a memo key. *)
let golden = 0.6180339887498949

let alphas ~seed n =
  let x0 = Prng.float (Prng.create seed) in
  Array.init n (fun k -> Float.rem (x0 +. (float_of_int k *. golden)) 1.0)

let alpha_str a = Printf.sprintf "%.17g" a

(* serve-hit: small instances of every kind the protocol serves, and a
   fixed mix over them. Every line is memoizable, so after one warm
   pass each request is a memo hit. *)
let hit_instances ~seed =
  [
    ("l", relabel ~seed ~prefix:"link " (IF.Links (W.random_polynomial_links (Prng.create 11) ~m:8 ())));
    ("cs", relabel ~seed ~prefix:"link " (IF.Links (W.random_common_slope_links (Prng.create 12) ~m:5 ())));
    ("g", grid_text ());
    ( "c",
      relabel ~seed ~prefix:"commodity "
        (IF.Network (W.synthetic_city (Prng.create 13_008) ~rings:8 ~radials:32 ~commodities:8 ())) );
  ]

let hit_mix =
  [|
    "solve l nash"; "solve l opt"; "optop l"; "induced l 0.25"; "sweep l 0.4"; "sweep l 0 1 11";
    "optop cs"; "sweep cs 0.3"; "solve g nash"; "solve g opt"; "mop g"; "induced g 0.5";
    "assign c nash fw"; "assign c opt fw";
  |]

(* [n] requests: consecutive seed-shuffled passes over the mix, so every
   run sends each line equally often. *)
let hit_sequence ~seed n =
  let g = Prng.create seed in
  let pass = Array.copy hit_mix in
  Array.init n (fun k ->
      let i = k mod Array.length pass in
      if i = 0 then Prng.shuffle g pass;
      pass.(i))
