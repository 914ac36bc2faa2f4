type kind =
  | Constant of float
  | Affine of { slope : float; intercept : float }
  | Polynomial of float array
  | Mm1 of { capacity : float }
  | Bpr of { free_flow : float; capacity : float; alpha : float; beta : float }
  | Shifted of { offset : float; base : kind }
  | Custom of string

(* A latency is data: its kind, two facts read off the kind once, when
   the latency is built, and what the kind cannot carry. [Kind]: the
   kind is the whole function, a closed form or one shift of one.
   [Shift]: x ↦ base(by + x), for a shift of a shifted latency or of a
   [Custom] one. [Functions]: a [Custom]'s own. *)
type t = {
  kind : kind;
  degree : int;  (* d when the kind is b + c·xᵈ or a shift of it, else 0 *)
  constant : bool;  (* [constant_value] is [Some] *)
  via : via;
}

and via =
  | Kind
  | Shift of { by : float; base : t }
  | Functions of { eval : float -> float; deriv : float -> float; primitive : float -> float }

let c_evals = Sgr_obs.Obs.counter "latency.evaluations"

let kind t = t.kind

(* The formulas of the closed-form kinds. Each has this one definition,
   called by the scalar functions and the array kernels alike. Inlined,
   so a kernel boxes no float. *)
let[@inline] affine_value slope intercept x = (slope *. x) +. intercept

let[@inline] mm1_value capacity x = if x >= capacity then Float.infinity else 1.0 /. (capacity -. x)

let[@inline] mm1_slope capacity x =
  if x >= capacity then Float.infinity else 1.0 /. ((capacity -. x) *. (capacity -. x))

let[@inline] mm1_deriv2 capacity x =
  if x >= capacity then Float.infinity
  else 2.0 /. ((capacity -. x) *. (capacity -. x) *. (capacity -. x))

let[@inline] bpr_value free_flow capacity alpha beta x =
  free_flow *. (1.0 +. (alpha *. ((x /. capacity) ** beta)))

let[@inline] bpr_slope free_flow capacity alpha beta x =
  free_flow *. alpha *. beta /. capacity *. ((x /. capacity) ** (beta -. 1.0))

(* β = 1 is linear; β < 2 is infinitely curved at 0. *)
let[@inline] bpr_deriv2 free_flow capacity alpha beta x =
  if beta <= 1.0 then 0.0
  else
    free_flow *. alpha *. beta *. (beta -. 1.0) /. (capacity *. capacity)
    *. ((x /. capacity) ** (beta -. 2.0))

(* Σ cᵢ xⁱ, Σ i·cᵢ·x^(i-1) and Σ i(i-1)·cᵢ·x^(i-2), by Horner. *)
let[@inline] horner coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

let[@inline] poly_deriv coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 1 do
    acc := (!acc *. x) +. (float_of_int i *. coeffs.(i))
  done;
  !acc

let[@inline] poly_deriv2 coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 2 do
    acc := (!acc *. x) +. (float_of_int (i * (i - 1)) *. coeffs.(i))
  done;
  !acc

(* Σ cᵢ x^(i+1)/(i+1) by Horner, down to its zero constant term, which
   turns a -0 into +0. *)
let poly_primitive coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs downto 1 do
    acc := (!acc *. x) +. (coeffs.(i - 1) /. float_of_int i)
  done;
  (!acc *. x) +. 0.0

(* [shift s] reads its base at s + x, and is the identity at s = 0
   (exact test by design). *)
let[@inline] unshifted s = (s = 0.0) [@lint.allow "float-equality"]

let[@inline] add_offset s x = if unshifted s then x else s +. x

(* [Tol.clamp_nonneg], which is [Float.max 0.], inlined. *)
let[@inline] clamp_nonneg v = if v > 0.0 || Float.is_nan v then v else 0.0

(* ℓ(x) and ℓ'(x) from a kind that is the whole function: a closed form
   at x, or one at offset + x under [Shifted]. A [Custom] kind carries
   no function (its latency's [via] does), so it reads nan. *)
let[@inline] kind_value kind x =
  let z = match kind with Shifted { offset; _ } -> offset +. x | _ -> x in
  match kind with
  | Constant c | Shifted { base = Constant c; _ } -> c
  | Affine { slope; intercept } | Shifted { base = Affine { slope; intercept }; _ } ->
      affine_value slope intercept z
  | Polynomial coeffs | Shifted { base = Polynomial coeffs; _ } -> horner coeffs z
  | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ } -> mm1_value capacity z
  | Bpr { free_flow; capacity; alpha; beta }
  | Shifted { base = Bpr { free_flow; capacity; alpha; beta }; _ } ->
      bpr_value free_flow capacity alpha beta z
  | Custom _ | Shifted { base = Custom _ | Shifted _; _ } -> Float.nan

let[@inline] kind_deriv kind x =
  let z = match kind with Shifted { offset; _ } -> offset +. x | _ -> x in
  match kind with
  | Constant _ | Shifted { base = Constant _; _ } -> 0.0
  | Affine { slope; _ } | Shifted { base = Affine { slope; _ }; _ } -> slope
  | Polynomial coeffs | Shifted { base = Polynomial coeffs; _ } -> poly_deriv coeffs z
  | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ } -> mm1_slope capacity z
  | Bpr { free_flow; capacity; alpha; beta }
  | Shifted { base = Bpr { free_flow; capacity; alpha; beta }; _ } ->
      bpr_slope free_flow capacity alpha beta z
  | Custom _ | Shifted { base = Custom _ | Shifted _; _ } -> Float.nan

let kind_primitive kind x =
  let primitive kind x =
    match kind with
    | Constant c -> c *. x
    | Affine { slope; intercept } -> (0.5 *. slope *. x *. x) +. (intercept *. x)
    | Polynomial coeffs -> poly_primitive coeffs x
    | Mm1 { capacity } ->
        if x >= capacity then Float.infinity else Float.log (capacity /. (capacity -. x))
    | Bpr { free_flow; capacity; alpha; beta } ->
        free_flow
        *. (x +. (alpha *. capacity /. (beta +. 1.0) *. ((x /. capacity) ** (beta +. 1.0))))
    | Shifted _ | Custom _ -> Float.nan
  in
  match kind with
  | Shifted { offset; base } -> primitive base (offset +. x) -. primitive base offset
  | kind -> primitive kind x

(* The same through [via]: a link adds its offset and follows it, so a
   nested shift adds its offsets one at a time, ℓ(b + (a + x)) for
   [shift a (shift b ℓ)]. A chain is as deep as the instance makes it,
   so each link is a cancellation checkpoint. *)
let rec linked_value t x =
  match t.via with
  | Kind -> kind_value t.kind x
  | Shift { by; base } ->
      Sgr_obs.Cancel.check ();
      linked_value base (by +. x)
  | Functions f -> f.eval x

let rec linked_deriv t x =
  match t.via with
  | Kind -> kind_deriv t.kind x
  | Shift { by; base } ->
      Sgr_obs.Cancel.check ();
      linked_deriv base (by +. x)
  | Functions f -> f.deriv x

let rec primitive t x =
  match t.via with
  | Kind -> kind_primitive t.kind x
  | Shift { by; base } ->
      Sgr_obs.Cancel.check ();
      primitive base (by +. x) -. primitive base by
  | Functions f -> f.primitive x

(* ℓ(x) and ℓ'(x): a kind that is the function runs inline; a link is
   followed out of line. *)
let[@inline] value t x =
  match t.via with Kind -> kind_value t.kind x | Shift _ | Functions _ -> linked_value t x

let[@inline] deriv t x =
  match t.via with Kind -> kind_deriv t.kind x | Shift _ | Functions _ -> linked_deriv t x

(* ℓ(z), or with [marginal] ℓ(z) + x·ℓ'(z): at z = x the latency or the
   marginal cost at x, and at z = s + x those of [shift s ℓ]. *)
let[@inline] criterion ~marginal t z x =
  let v = value t z in
  if marginal then v +. (x *. deriv t z) else v

let eval t x =
  Sgr_obs.Obs.incr c_evals;
  value t x

let marginal t x =
  Sgr_obs.Obs.incr c_evals;
  criterion ~marginal:true t x x

let cost t x = x *. value t x

(* The constructors turn every other constant latency into [Constant]:
   an affine one with slope 0, a polynomial with no positive term past
   the constant. t₀·(1 + α(x/k)^β) is the constant t₀ when α or t₀ is 0
   (both are nonnegative, so [<= 0.] is the exact zero test). *)
let kind_constant_value = function
  | Constant c | Shifted { base = Constant c; _ } -> Some c
  | (Bpr { free_flow; alpha; _ } | Shifted { base = Bpr { free_flow; alpha; _ }; _ })
    when alpha <= 0.0 || free_flow <= 0.0 ->
      Some free_flow
  | _ -> None

(* The degree d of a polynomial b + c·x^d with a single nonconstant
   term, or 0 when it has several (or none). *)
let single_term coeffs =
  let d = ref 0 and terms = ref 0 in
  for i = 1 to Array.length coeffs - 1 do
    if coeffs.(i) > 0.0 then begin
      d := i;
      incr terms
    end
  done;
  if !terms = 1 then !d else 0

(* The latency whose kind, unshifted and closed-form, is its function. *)
let closed kind =
  let degree = match kind with Polynomial coeffs -> single_term coeffs | _ -> 0 in
  { kind; degree; constant = Option.is_some (kind_constant_value kind); via = Kind }

(* Every parameter of a closed form must be finite: nan passes the
   sign guards below, and a latency built on nan or infinity evaluates
   to nan. *)
let check_finite name what x =
  if not (Float.is_finite x) then invalid_arg ("Latency." ^ name ^ ": non-finite " ^ what)

let constant c =
  check_finite "constant" "delay" c;
  if c < 0.0 then invalid_arg "Latency.constant: negative delay";
  closed (Constant c)

let affine ~slope ~intercept =
  check_finite "affine" "coefficient" slope;
  check_finite "affine" "coefficient" intercept;
  if slope < 0.0 || intercept < 0.0 then invalid_arg "Latency.affine: negative coefficient";
  (* Exact test by design: only a literal zero slope normalizes to the
     [Constant] constructor; a denormal slope is still affine. *)
  if (slope = 0.0) [@lint.allow "float-equality"] then constant intercept
  else closed (Affine { slope; intercept })

let linear a = affine ~slope:a ~intercept:0.0

let polynomial coeffs =
  Array.iter (check_finite "polynomial" "coefficient") coeffs;
  if Array.exists (fun c -> c < 0.0) coeffs then
    invalid_arg "Latency.polynomial: negative coefficient";
  let coeffs = Array.copy coeffs in
  let n = Array.length coeffs in
  let nonconst = ref false in
  for i = 1 to n - 1 do
    if coeffs.(i) > 0.0 then nonconst := true
  done;
  if n = 0 then constant 0.0
  else if not !nonconst then constant coeffs.(0)
  else closed (Polynomial coeffs)

let monomial ~coeff ~degree =
  check_finite "monomial" "coefficient" coeff;
  if degree < 0 then invalid_arg "Latency.monomial: negative degree";
  let coeffs = Array.make (degree + 1) 0.0 in
  coeffs.(degree) <- coeff;
  polynomial coeffs

let mm1 ~capacity =
  check_finite "mm1" "capacity" capacity;
  if capacity <= 0.0 then invalid_arg "Latency.mm1: capacity must be positive";
  closed (Mm1 { capacity })

let bpr ~free_flow ~capacity ?(alpha = 0.15) ?(beta = 4.0) () =
  check_finite "bpr" "free flow" free_flow;
  check_finite "bpr" "capacity" capacity;
  check_finite "bpr" "alpha" alpha;
  check_finite "bpr" "beta" beta;
  if free_flow < 0.0 || capacity <= 0.0 || alpha < 0.0 || beta < 1.0 then
    invalid_arg "Latency.bpr: bad parameter";
  closed (Bpr { free_flow; capacity; alpha; beta })

let custom ?(label = "custom") ~eval ?deriv ?primitive () =
  let deriv =
    match deriv with
    | Some d -> d
    | None ->
        fun x ->
          let h = 1e-6 *. Float.max 1.0 (Float.abs x) in
          let lo = Float.max 0.0 (x -. h) in
          (eval (x +. h) -. eval lo) /. (x +. h -. lo)
  in
  let primitive =
    match primitive with
    | Some p -> p
    | None -> fun x -> Sgr_numerics.Integrate.adaptive_simpson ~f:eval ~lo:0.0 ~hi:x ()
  in
  { kind = Custom label; degree = 0; constant = false; via = Functions { eval; deriv; primitive } }

let shift s base =
  check_finite "shift" "offset" s;
  if s < 0.0 then invalid_arg "Latency.shift: negative offset";
  if unshifted s then base
  else
    (* Canonical form: shifting a shifted latency sums the offsets instead
       of nesting [Shifted] nodes, so structurally equal latencies built by
       different shift sequences have equal kinds (and hence equal
       canonical serializations and fingerprints). The evaluation links
       to [base] instead, ℓ((s₁+s₂)+x) = (ℓ∘(+s₂))(s₁+x), as it does for
       a [Custom] base, whose functions the kind cannot carry. *)
    match base.kind with
    | Shifted { offset; base = inner } ->
        let kind = Shifted { offset = s +. offset; base = inner } in
        { base with kind; via = Shift { by = s; base } }
    | Custom _ ->
        let kind = Shifted { offset = s; base = base.kind } in
        { base with kind; via = Shift { by = s; base } }
    | kind -> { base with kind = Shifted { offset = s; base = kind } }

let rec pp_kind ppf = function
  | Constant c -> Format.fprintf ppf "%.4g" c
  | Affine { slope; intercept } ->
      (* Printer cosmetics: exact zero decides whether the term shows. *)
      if (intercept = 0.0) [@lint.allow "float-equality"] then Format.fprintf ppf "%.4gx" slope
      else Format.fprintf ppf "%.4gx + %.4g" slope intercept
  | Polynomial coeffs ->
      let first = ref true in
      Array.iteri
        (fun i c ->
          if (c <> 0.0) [@lint.allow "float-equality"] || (i = 0 && Array.length coeffs = 1)
          then begin
            if not !first then Format.pp_print_string ppf " + ";
            first := false;
            match i with
            | 0 -> Format.fprintf ppf "%.4g" c
            | 1 -> Format.fprintf ppf "%.4gx" c
            | _ -> Format.fprintf ppf "%.4gx^%d" c i
          end)
        coeffs;
      if !first then Format.pp_print_string ppf "0"
  | Mm1 { capacity } -> Format.fprintf ppf "1/(%.4g - x)" capacity
  | Bpr { free_flow; capacity; alpha; beta } ->
      Format.fprintf ppf "%.4g(1 + %.4g(x/%.4g)^%.4g)" free_flow alpha capacity beta
  | Shifted { offset; base } -> Format.fprintf ppf "(%a)∘(+%.4g)" pp_kind base offset
  | Custom label -> Format.pp_print_string ppf label

(* Tolls enter latencies as constant intercept shifts: ℓ(x) + τ. The sum
   keeps the derivative and shifts the primitive linearly, so it is again
   a valid latency; the closed-form kinds absorb τ into their
   coefficients so solvers keep their fast inverses (and the affine
   closed-form engine its reduction). *)
let rec shift_intercept tau t =
  check_finite "shift_intercept" "shift" tau;
  if tau < 0.0 then invalid_arg "Latency.shift_intercept: negative shift";
  (* Exact test by design: a zero shift is the identity. *)
  if (tau = 0.0) [@lint.allow "float-equality"] then t
  else
    match t.kind with
    | Constant c -> constant (c +. tau)
    | Affine { slope; intercept } -> affine ~slope ~intercept:(intercept +. tau)
    | Polynomial coeffs ->
        let coeffs = Array.copy coeffs in
        coeffs.(0) <- coeffs.(0) +. tau;
        polynomial coeffs
    | Shifted { offset; base = (Constant _ | Affine _ | Polynomial _ | Mm1 _ | Bpr _) as base } ->
        (* base(offset + x) + τ = (base + τ)(offset + x): push the shift
           into the closed-form base, which has the shift's facts. *)
        shift offset (shift_intercept tau { t with kind = base; via = Kind })
    | Mm1 _ | Bpr _ | Custom _ | Shifted _ ->
        custom
          ~label:(Format.asprintf "%a + %.4g" pp_kind t.kind tau)
          ~eval:(fun x -> value t x +. tau)
          ~deriv:(fun x -> deriv t x)
          ~primitive:(fun x -> primitive t x +. (tau *. x))
          ()

let constant_value t = if t.constant then kind_constant_value t.kind else None
let is_constant t = t.constant

(* The bracketed bisection every inverse reduces to when its kind has no
   closed form; [reference_inverse] exposes it as the oracle the closed
   forms are tested against. *)
let inverse_of f t y =
  if t.constant then
    (* [Failure] is the documented contract here; the links water-filling
       callers and the tests both match on it. *)
    (failwith "Latency.inverse: constant latency has no inverse") [@lint.allow "no-untyped-failure"]
  else if f t 0.0 >= y then 0.0
  else begin
    let g x = f t x in
    (* M/M/1 never exceeds capacity: cap the expansion below it. *)
    let hi =
      match t.kind with
      | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ } ->
          (* Find hi < capacity with g hi >= y by halving the gap. *)
          let offset = match t.kind with Shifted { offset; _ } -> offset | _ -> 0.0 in
          let cap = capacity -. offset in
          if cap <= 0.0 then
            (failwith "Latency.inverse: shifted M/M/1 beyond capacity")
            [@lint.allow "no-untyped-failure"]
          else begin
            let gap = ref (0.5 *. cap) in
            while g (cap -. !gap) < y && !gap > 1e-300 do
              gap := 0.5 *. !gap
            done;
            cap -. !gap
          end
      | _ -> Sgr_numerics.Bisection.expand_upper ~f:g ~target:y ()
    in
    Sgr_numerics.Bisection.solve_increasing ~f:g ~y ~lo:0.0 ~hi ()
  end

let reference_inverse criterion t y =
  match criterion with `Nash -> inverse_of eval t y | `Opt -> inverse_of marginal t y

(* x >= 0 with b + k·x^p = y, floored at 0: the inverse of every
   monomial-plus-constant curve (BPR is t₀ + t₀α·(x/cap)^β). *)
let[@inline] power_root ~b ~k ~p y = if y <= b then 0.0 else Float.pow ((y -. b) /. k) (1.0 /. p)

(* Nash and optimum inverses of b + c·x^d: the marginal cost is
   b + (d+1)c·x^d. *)
let[@inline] poly_root ~mult coeffs d y =
  let fd = float_of_int d in
  power_root ~b:coeffs.(0) ~k:((if mult then fd +. 1.0 else 1.0) *. coeffs.(d)) ~p:fd y

(* Same for BPR: its marginal cost is t₀ + t₀α(1+β)·(x/cap)^β. *)
let[@inline] bpr_root ~mult ~free_flow ~capacity ~alpha ~beta y =
  let k = free_flow *. alpha *. if mult then 1.0 +. beta else 1.0 in
  capacity *. power_root ~b:free_flow ~k ~p:beta y

(* The inverses of x ↦ ℓ(s + x) for a line ℓ = a·x + b (latency, and
   marginal cost 2a·x + (a·s + b), given a·s) and for M/M/1, before
   the floor at 0. *)
let[@inline] affine_root slope intercept s y = ((y -. intercept) /. slope) -. s

let[@inline] affine_marginal_root slope intercept slope_s y =
  (y -. intercept -. slope_s) /. (2.0 *. slope)

let[@inline] mm1_root capacity s y =
  if y <= 1.0 /. (capacity -. s) then 0.0 else capacity -. (1.0 /. y) -. s

(* The marginal cost of 1/(c - x) is c/(c - x)², so its inverse is
   c - √(c/y); a shift by s is the same curve with capacity c - s. *)
let[@inline] mm1_marginal_root cap y =
  if y <= 1.0 /. cap then 0.0 else clamp_nonneg (cap -. Float.sqrt (cap /. y))

(* The inverse at y of the latency of [shift s t], or with [marginal] of
   its marginal cost: the closed form of that latency's kind where it
   has one, else the bisection. The kind is [t]'s own at s = 0 and
   otherwise [Shifted] with the offsets summed; [shifted] says whether
   it is [Shifted]. A kind's offset is never ±0, so s +. offset is that
   offset at s = 0. At offset 0 each shifted arm is its unshifted form
   bit for bit: v -. 0. is v, and a root there is never below +0.
   Affine, b + c·xᵈ, BPR and M/M/1 have closed forms, and their
   marginal costs unshifted; a shifted marginal cost has one for affine
   and for M/M/1 below its capacity. *)
let[@inline] invert ~marginal t s y =
  let shifted = match t.kind with Shifted _ -> true | _ -> not (unshifted s) in
  let offset = match t.kind with Shifted { offset; _ } -> s +. offset | _ -> s in
  match t.kind with
  | Affine { slope; intercept } | Shifted { base = Affine { slope; intercept }; _ }
    when slope > 0.0 ->
      clamp_nonneg
        (if marginal then
           affine_marginal_root slope intercept (if shifted then slope *. offset else 0.0) y
         else affine_root slope intercept offset y)
  | Polynomial coeffs | Shifted { base = Polynomial coeffs; _ }
    when t.degree > 0 && not (marginal && shifted) ->
      clamp_nonneg (poly_root ~mult:marginal coeffs t.degree y -. offset)
  | Bpr { free_flow; capacity; alpha; beta }
  | Shifted { base = Bpr { free_flow; capacity; alpha; beta }; _ }
    when alpha > 0.0 && free_flow > 0.0 && not (marginal && shifted) ->
      clamp_nonneg (bpr_root ~mult:marginal ~free_flow ~capacity ~alpha ~beta y -. offset)
  | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ }
    when (not (marginal && shifted)) || capacity > offset ->
      if marginal then mm1_marginal_root (capacity -. offset) y
      else
        let x = mm1_root capacity offset y in
        if shifted then clamp_nonneg x else x
  | _ ->
      let t = if unshifted s then t else shift s t in
      reference_inverse (if marginal then `Opt else `Nash) t y

let inverse t y = invert ~marginal:false t 0.0 y
let inverse_marginal t y = invert ~marginal:true t 0.0 y

(* ℓ'' of [shift s t] at x: from the kind, at its summed offset (as in
   [invert]), unless the kind holds a [Custom], whose ℓ' is differenced. *)
let[@inline] deriv2_at t s x =
  let z = match t.kind with Shifted { offset; _ } -> s +. offset +. x | _ -> add_offset s x in
  match t.kind with
  | Constant _ | Affine _ | Shifted { base = Constant _ | Affine _; _ } -> 0.0
  | Polynomial coeffs | Shifted { base = Polynomial coeffs; _ } -> poly_deriv2 coeffs z
  | Mm1 { capacity } | Shifted { base = Mm1 { capacity }; _ } -> mm1_deriv2 capacity z
  | Bpr { free_flow; capacity; alpha; beta }
  | Shifted { base = Bpr { free_flow; capacity; alpha; beta }; _ } ->
      bpr_deriv2 free_flow capacity alpha beta z
  | Custom _ | Shifted { base = Custom _ | Shifted _; _ } ->
      let h = 1e-6 *. Float.max 1.0 (Float.abs x) in
      let lo = Float.max 0.0 (x -. h) in
      (deriv t (add_offset s (x +. h)) -. deriv t (add_offset s lo)) /. (x +. h -. lo)

let deriv2 t x = deriv2_at t 0.0 x

let pp ppf t = pp_kind ppf t.kind
let to_string t = Format.asprintf "%a" pp t

module Kernels = struct
  type latency = t

  let too_short name =
    invalid_arg ("Latency.Kernels." ^ name ^ ": arrays shorter than the latencies")

  let fill (lats : latency array) ~marginal ~at ~into =
    let n = Array.length lats in
    if Array.length at < n || Array.length into < n then too_short "fill";
    Sgr_obs.Obs.add c_evals n;
    for i = 0 to n - 1 do
      let x = at.(i) in
      into.(i) <- criterion ~marginal lats.(i) x x
    done

  let fill_entries (lats : latency array) ~marginal ~at ~entries ~len ~into =
    let n = Array.length lats in
    if Array.length at < n || Array.length into < n then too_short "fill_entries";
    if len < 0 || len > Array.length entries then
      invalid_arg "Latency.Kernels.fill_entries: len outside the index list";
    Sgr_obs.Obs.add c_evals len;
    for k = 0 to len - 1 do
      let i = entries.(k) in
      let x = at.(i) in
      into.(i) <- criterion ~marginal lats.(i) x x
    done

  let directional (lats : latency array) ~marginal ~base ~entries ~dirs ~len gamma =
    Sgr_obs.Obs.add c_evals len;
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      let i = entries.(k) and d = dirs.(k) in
      let x = base.(i) +. (gamma *. d) in
      acc := !acc +. (d *. criterion ~marginal lats.(i) x x)
    done;
    !acc

  (* A gathered line: per support entry its base, direction and, for an
     affine entry, its slope and intercept, contiguous, so a probe of an
     all-affine line reads no latency and dispatches on no kind.
     [affine] is false when some entry is not: that line's probes
     evaluate every entry's latency, by [index].

     An all-affine line is also its slope's exact model: with m = 2 for
     the marginal cost (2a·x + c) and 1 for the latency (a·x + c), entry
     k contributes d·(m·a·(p + γd) + c), so the sum is A + γB with
     A = Σ d·(m·a·p + c) and B = Σ m·a·d², summed by [gather] with
     T = Σ |d|·(m·a·|p| + c), which bounds the terms' size. *)
  type line = {
    lats : latency array;
    mutable marginal : bool;
    mutable len : int;
    mutable affine : bool;
    mutable index : int array;
    mutable base : float array;
    mutable dir : float array;
    mutable slope : float array;
    mutable intercept : float array;
    model : float array;  (* A, B and T, unboxed *)
    mutable tame : bool;  (* |base| + |direction| + slope + intercept sum to at most 2^256 *)
  }

  (* The buffers grow with the longest support gathered, not the
     latencies: a Frank–Wolfe direction is a few hundred of 10^4. *)
  let line lats =
    {
      lats;
      marginal = false;
      len = 0;
      affine = true;
      index = [||];
      base = [||];
      dir = [||];
      slope = [||];
      intercept = [||];
      model = [| 0.0; 0.0; 0.0 |];
      tame = true;
    }

  let c_full_sums = Sgr_obs.Obs.counter "latency.full_sum_probes"

  (* Where [slope_sign]'s bound holds: the gathered values' magnitudes
     sum to at most this, so each of them is at most this. *)
  let tame_limit = Float.ldexp 1.0 256

  let gather l ~marginal ~base ~entries ~dirs ~len =
    let n = Array.length l.lats in
    if len > n then invalid_arg "Latency.Kernels.gather: longer than the latencies";
    if len > Array.length l.index then begin
      let size = Int.min n (Int.max len (2 * Array.length l.index)) in
      l.index <- Array.make size 0;
      l.base <- Array.make size 0.0;
      l.dir <- Array.make size 0.0;
      l.slope <- Array.make size 0.0;
      l.intercept <- Array.make size 0.0
    end;
    l.marginal <- marginal;
    l.len <- len;
    l.affine <- true;
    let a_sum = ref 0.0 and b_sum = ref 0.0 and t_sum = ref 0.0 and size = ref 0.0 in
    for k = 0 to len - 1 do
      let i = entries.(k) in
      let p = base.(i) and d = dirs.(k) in
      l.index.(k) <- i;
      l.base.(k) <- p;
      l.dir.(k) <- d;
      match l.lats.(i).kind with
      | Affine { slope; intercept } ->
          l.slope.(k) <- slope;
          l.intercept.(k) <- intercept;
          let ma = if marginal then slope +. slope else slope in
          a_sum := !a_sum +. (d *. ((ma *. p) +. intercept));
          b_sum := !b_sum +. (ma *. d *. d);
          t_sum := !t_sum +. (Float.abs d *. ((ma *. Float.abs p) +. intercept));
          size := !size +. (Float.abs p +. Float.abs d +. slope +. intercept)
      | _ -> l.affine <- false
    done;
    l.model.(0) <- !a_sum;
    l.model.(1) <- !b_sum;
    l.model.(2) <- !t_sum;
    (* A sum of nonnegative terms rounds to no less than any of them,
       and a nan or infinite one fails the test. *)
    l.tame <- !size <= tame_limit;
    if l.affine then Sgr_obs.Obs.add c_evals len

  (* Each term is [criterion]'s on the same operands, in the same order,
     so the sum is [directional]'s float. *)
  let slope_at l gamma =
    let len = l.len and marginal = l.marginal in
    Sgr_obs.Obs.add c_evals len;
    Sgr_obs.Obs.incr c_full_sums;
    let base = l.base and dir = l.dir and slope = l.slope and intercept = l.intercept in
    let acc = ref 0.0 in
    if l.affine then
      for k = 0 to len - 1 do
        let d = dir.(k) and a = slope.(k) in
        let x = base.(k) +. (gamma *. d) in
        let v = affine_value a intercept.(k) x in
        acc := !acc +. (d *. if marginal then v +. (x *. a) else v)
      done
    else
      for k = 0 to len - 1 do
        let d = dir.(k) in
        let x = base.(k) +. (gamma *. d) in
        acc := !acc +. (d *. criterion ~marginal l.lats.(l.index.(k)) x x)
      done;
    !acc

  (* The model's rounding bound (Higham, Accuracy and Stability of
     Numerical Algorithms, 2002, §4.2). For 0 <= γ <= 1 on a tame line
     of n entries, with u = 2^-53 and γⱼ = j·u/(1 - j·u): the full sum
     rounds each term by at most γ₆ of its share of T + γB and sums the
     terms with at most γ₍ₙ₋₁₎ of their magnitudes, so it lies within
     γ₍ₙ₊₅₎·(T + γB) of A + γB; the model's A, B and its probe lie
     within γ₍ₙ₊₂₎·(T + γB) + u·|model|. The bound
     2(n + 10)·ε·(T + γB), ε = 2u, covers both with a factor near 2 to
     spare for the rounding of T, B and the bound itself. Tameness
     (every value within ±2^256) keeps every intermediate far from
     overflow, and the absolute (n + 10)·2^-500 covers what gradual
     underflow can lose, at most about 11n·2^-563. So a model beyond
     the bound has the exact slope's sign, and the full sum, within its
     own share of the bound of that slope, has the same sign and is not
     zero. *)
  let underflow_floor = Float.ldexp 1.0 (-500)

  let slope_sign l gamma =
    if l.affine && l.tame && gamma >= 0.0 && gamma <= 1.0 then begin
      let a = l.model.(0) and b = l.model.(1) and t = l.model.(2) in
      let model = a +. (gamma *. b) in
      let n = float_of_int (l.len + 10) in
      let bound = (2.0 *. n *. epsilon_float *. (t +. (gamma *. b))) +. (n *. underflow_floor) in
      if Float.abs model > bound then model else slope_at l gamma
    end
    else slope_at l gamma

  (* The level kernels: entry i is [shift offsets.(i) lats.(i)], read
     through [add_offset] with no latency built. *)

  (* Entry i's offset, refused when negative, as [shift] refuses it. *)
  let[@inline] offset name offsets i =
    let s = offsets.(i) in
    if s < 0.0 then invalid_arg ("Latency.Kernels." ^ name ^ ": negative offset");
    s

  let activations lats ~offsets ~marginal ~lines ~into =
    let n = Array.length lats in
    if Array.length offsets < n || Array.length lines < n || Array.length into < n then
      too_short "activations";
    let evals = ref 0 in
    for i = 0 to n - 1 do
      let l = lats.(i) in
      into.(i) <-
        (match constant_value l with
        | Some c -> c
        | None when not (Float.is_nan lines.(i)) -> lines.(i)
        | None ->
            incr evals;
            criterion ~marginal l (add_offset (offset "activations" offsets i) 0.0) 0.0)
    done;
    if !evals > 0 then Sgr_obs.Obs.add c_evals !evals

  let flows lats ~offsets ~marginal y ~into =
    let n = Array.length lats in
    if Array.length offsets < n || Array.length into < n then too_short "flows";
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      let l = lats.(i) in
      if not l.constant then begin
        let x = invert ~marginal l (offset "flows" offsets i) y in
        let x = clamp_nonneg x in
        into.(i) <- x;
        sum := !sum +. x
      end
    done;
    !sum

  (* 1/g'(x) with g' = ℓ' (Nash) or 2ℓ' + x·ℓ'' (optimum) of
     [shift s ℓ]. *)
  let[@inline] rate_of ~marginal l s x =
    let d = deriv l (add_offset s x) in
    1.0 /. if marginal then (2.0 *. d) +. if x > 0.0 then x *. deriv2_at l s x else 0.0 else d

  let rates lats ~offsets ~marginal x ~into =
    let n = Array.length lats in
    if Array.length offsets < n || Array.length x < n || Array.length into < n then
      too_short "rates";
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      let xi = x.(i) in
      if xi > 0.0 then begin
        let w = rate_of ~marginal lats.(i) (offset "rates" offsets i) xi in
        into.(i) <- w;
        sum := !sum +. w
      end
      else into.(i) <- 0.0
    done;
    !sum

  let rate lats ~offsets ~marginal i x = rate_of ~marginal lats.(i) (offset "rate" offsets i) x
end
