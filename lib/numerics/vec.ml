(* Kahan compensated summation: the running error term [c] captures the
   low-order bits lost by each addition. *)
let sum v =
  let s = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let y = v.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let add a b =
  assert (Array.length a = Array.length b);
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let scale c v = Array.map (fun x -> c *. x) v

let axpy a x y =
  assert (Array.length x = Array.length y);
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let linf_dist a b =
  assert (Array.length a = Array.length b);
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    d := Float.max !d (Float.abs (a.(i) -. b.(i)))
  done;
  !d

let extremum better v =
  if Array.length v = 0 then invalid_arg "Vec: empty array";
  let best = ref v.(0) in
  for i = 1 to Array.length v - 1 do
    if better v.(i) !best then best := v.(i)
  done;
  !best

let max_elt v = extremum (fun a b -> a > b) v
let min_elt v = extremum (fun a b -> a < b) v

let argmin v =
  if Array.length v = 0 then invalid_arg "Vec: empty array";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) < v.(!best) then best := i
  done;
  !best

let all_nonneg ?(eps = Tolerance.check_eps) v =
  Array.for_all (fun x -> x >= -.eps) v

let pp ppf v =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf x -> Format.fprintf ppf "%.6g" x))
    v
