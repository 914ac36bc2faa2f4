type kind =
  | Constant of float
  | Affine of { slope : float; intercept : float }
  | Polynomial of float array
  | Mm1 of { capacity : float }
  | Bpr of { free_flow : float; capacity : float; alpha : float; beta : float }
  | Shifted of { offset : float; base : kind }
  | Custom of string

type t = {
  kind : kind;
  eval : float -> float;
  deriv : float -> float;
  primitive : float -> float;
}

let c_evals = Sgr_obs.Obs.counter "latency.evaluations"

let kind t = t.kind

let eval t x =
  Sgr_obs.Obs.incr c_evals;
  t.eval x

let deriv t x = t.deriv x
let primitive t x = t.primitive x

let marginal t x =
  Sgr_obs.Obs.incr c_evals;
  t.eval x +. (x *. t.deriv x)

let cost t x = x *. t.eval x

let constant c =
  if c < 0.0 then invalid_arg "Latency.constant: negative delay";
  { kind = Constant c; eval = (fun _ -> c); deriv = (fun _ -> 0.0); primitive = (fun x -> c *. x) }

(* The formulas of the closed-form kinds. Each has this one definition:
   the constructors' closures and the flat tables at the end of this
   file both call it, so the two evaluate bit for bit alike. Inlined, so
   a table kernel boxes no float. *)
let[@inline] affine_value slope intercept x = (slope *. x) +. intercept

let[@inline] mm1_value capacity x = if x >= capacity then Float.infinity else 1.0 /. (capacity -. x)

let[@inline] mm1_slope capacity x =
  if x >= capacity then Float.infinity else 1.0 /. ((capacity -. x) *. (capacity -. x))

let[@inline] bpr_value free_flow capacity alpha beta x =
  free_flow *. (1.0 +. (alpha *. ((x /. capacity) ** beta)))

let[@inline] bpr_slope free_flow capacity alpha beta x =
  free_flow *. alpha *. beta /. capacity *. ((x /. capacity) ** (beta -. 1.0))

let affine ~slope ~intercept =
  if slope < 0.0 || intercept < 0.0 then invalid_arg "Latency.affine: negative coefficient";
  (* Exact test by design: only a literal zero slope normalizes to the
     [Constant] constructor; a denormal slope is still affine. *)
  if (slope = 0.0) [@lint.allow "float-equality"] then constant intercept
  else
    {
      kind = Affine { slope; intercept };
      eval = (fun x -> affine_value slope intercept x);
      deriv = (fun _ -> slope);
      primitive = (fun x -> (0.5 *. slope *. x *. x) +. (intercept *. x));
    }

let linear a = affine ~slope:a ~intercept:0.0

(* Horner evaluation. *)
let[@inline] horner coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := (!acc *. x) +. coeffs.(i)
  done;
  !acc

(* The coefficient i·cᵢ of x^(i-1) in the derivative of Σ cᵢ xⁱ. *)
let[@inline] deriv_coeff coeffs i = float_of_int i *. coeffs.(i)

(* The coefficients of Σ cᵢ xⁱ's derivative, by ascending degree. *)
let derivative_coeffs coeffs =
  Array.init (max 0 (Array.length coeffs - 1)) (fun i -> deriv_coeff coeffs (i + 1))

(* [horner (derivative_coeffs coeffs) x], forming each coefficient as
   the loop reaches it: the same products and sums, so the same bits,
   with no array built. *)
let[@inline] poly_deriv coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 1 do
    acc := (!acc *. x) +. deriv_coeff coeffs i
  done;
  !acc

let polynomial coeffs =
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
  else
    let dcoeffs = derivative_coeffs coeffs in
    let pcoeffs = Array.init (n + 1) (fun i -> if i = 0 then 0.0 else coeffs.(i - 1) /. float_of_int i) in
    {
      kind = Polynomial coeffs;
      eval = horner coeffs;
      deriv = horner dcoeffs;
      primitive = horner pcoeffs;
    }

let monomial ~coeff ~degree =
  if degree < 0 then invalid_arg "Latency.monomial: negative degree";
  let coeffs = Array.make (degree + 1) 0.0 in
  coeffs.(degree) <- coeff;
  polynomial coeffs

let mm1 ~capacity =
  if capacity <= 0.0 then invalid_arg "Latency.mm1: capacity must be positive";
  let eval x = mm1_value capacity x in
  let deriv x = mm1_slope capacity x in
  let primitive x =
    if x >= capacity then Float.infinity else Float.log (capacity /. (capacity -. x))
  in
  { kind = Mm1 { capacity }; eval; deriv; primitive }

let bpr ~free_flow ~capacity ?(alpha = 0.15) ?(beta = 4.0) () =
  if free_flow < 0.0 || capacity <= 0.0 || alpha < 0.0 || beta < 1.0 then
    invalid_arg "Latency.bpr: bad parameter";
  let eval x = bpr_value free_flow capacity alpha beta x in
  let deriv x = bpr_slope free_flow capacity alpha beta x in
  let primitive x =
    free_flow *. (x +. (alpha *. capacity /. (beta +. 1.0) *. ((x /. capacity) ** (beta +. 1.0))))
  in
  { kind = Bpr { free_flow; capacity; alpha; beta }; eval; deriv; primitive }

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
  { kind = Custom label; eval; deriv; primitive }

let shift s base =
  if s < 0.0 then invalid_arg "Latency.shift: negative offset";
  (* Exact test by design: zero offset is the identity, anything else
     must build a [Shifted] node. *)
  if (s = 0.0) [@lint.allow "float-equality"] then base
  else
    (* Canonical form: shifting a shifted latency sums the offsets instead
       of nesting [Shifted] nodes, so structurally equal latencies built by
       different shift sequences have equal kinds (and hence equal
       canonical serializations and fingerprints). The evaluation closures
       chain through [base] either way — ℓ((s₁+s₂)+x) = (ℓ∘(+s₂))(s₁+x). *)
    let kind =
      match base.kind with
      | Shifted { offset; base = inner } -> Shifted { offset = s +. offset; base = inner }
      | k -> Shifted { offset = s; base = k }
    in
    {
      kind;
      eval = (fun x -> base.eval (s +. x));
      deriv = (fun x -> base.deriv (s +. x));
      primitive = (fun x -> base.primitive (s +. x) -. base.primitive s);
    }

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

(* Rebuild a closed-form latency value from its kind; [None] for the
   kinds that carry behaviour outside the kind ([Custom]'s closures,
   [Shifted]'s base value). Used by [shift_intercept] to stay in closed
   form under a [Shifted] node. *)
let of_kind_opt = function
  | Constant c -> Some (constant c)
  | Affine { slope; intercept } -> Some (affine ~slope ~intercept)
  | Polynomial coeffs -> Some (polynomial coeffs)
  | Mm1 { capacity } -> Some (mm1 ~capacity)
  | Bpr { free_flow; capacity; alpha; beta } ->
      Some (bpr ~free_flow ~capacity ~alpha ~beta ())
  | Shifted _ | Custom _ -> None

(* Tolls enter latencies as constant intercept shifts: ℓ(x) + τ. The sum
   keeps the derivative and shifts the primitive linearly, so it is again
   a valid latency; the closed-form kinds absorb τ into their
   coefficients so solvers keep their fast inverses (and the affine
   closed-form engine its reduction). *)
let rec shift_intercept tau t =
  if tau < 0.0 then invalid_arg "Latency.shift_intercept: negative shift";
  (* Exact test by design: a zero shift is the identity. *)
  if (tau = 0.0) [@lint.allow "float-equality"] then t
  else
    match t.kind with
    | Constant c -> constant (c +. tau)
    | Affine { slope; intercept } -> affine ~slope ~intercept:(intercept +. tau)
    | Polynomial coeffs ->
        let coeffs = Array.copy coeffs in
        if Array.length coeffs = 0 then constant tau
        else begin
          coeffs.(0) <- coeffs.(0) +. tau;
          polynomial coeffs
        end
    | Shifted { offset; base } -> (
        (* base(offset + x) + τ = (base + τ)(offset + x): push the shift
           into the base when the base is reconstructible. *)
        match of_kind_opt base with
        | Some b -> shift offset (shift_intercept tau b)
        | None ->
            {
              kind = Custom (Format.asprintf "%a + %.4g" pp_kind t.kind tau);
              eval = (fun x -> t.eval x +. tau);
              deriv = t.deriv;
              primitive = (fun x -> t.primitive x +. (tau *. x));
            })
    | Mm1 _ | Bpr _ | Custom _ ->
        {
          kind = Custom (Format.asprintf "%a + %.4g" pp_kind t.kind tau);
          eval = (fun x -> t.eval x +. tau);
          deriv = t.deriv;
          primitive = (fun x -> t.primitive x +. (tau *. x));
        }

let rec kind_constant_value = function
  | Constant c -> Some c
  | Affine { slope = 0.0; intercept } -> Some intercept
  (* t₀·(1 + α(x/k)^β) is the constant t₀ when α or t₀ is 0 (both are
     nonnegative, so [<= 0.] is the exact zero test). *)
  | Bpr { free_flow; alpha; _ } when alpha <= 0.0 || free_flow <= 0.0 -> Some free_flow
  | Affine _ | Mm1 _ | Bpr _ | Custom _ -> None
  | Polynomial coeffs ->
      let nonconst = ref false in
      for i = 1 to Array.length coeffs - 1 do
        (* Structural constancy: any nonzero stored coefficient, however
           small, makes the polynomial non-constant. *)
        if (coeffs.(i) <> 0.0) [@lint.allow "float-equality"] then nonconst := true
      done;
      if !nonconst then None
      else Some (if Array.length coeffs = 0 then 0.0 else coeffs.(0))
  | Shifted { base; _ } -> kind_constant_value base

let constant_value t = kind_constant_value t.kind
let is_constant t = Option.is_some (constant_value t)

(* The bracketed bisection every inverse reduces to when its kind has no
   closed form; [reference_inverse] exposes it as the oracle the closed
   forms are tested against. *)
let inverse_of f t y =
  match constant_value t with
  (* [Failure] is the documented contract here; the links water-filling
     callers and the tests both match on it. *)
  | Some _ -> (failwith "Latency.inverse: constant latency has no inverse") [@lint.allow "no-untyped-failure"]
  | None ->
      if f t 0.0 >= y then 0.0
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
   the floor at 0. At s = 0 each is the unshifted inverse bit for bit:
   v -. 0.0 is v for every float v. *)
let[@inline] affine_root slope intercept s y = ((y -. intercept) /. slope) -. s

let[@inline] affine_marginal_root slope intercept slope_s y =
  (y -. intercept -. slope_s) /. (2.0 *. slope)

let[@inline] mm1_root capacity s y =
  if y <= 1.0 /. (capacity -. s) then 0.0 else capacity -. (1.0 /. y) -. s

let inverse t y =
  match t.kind with
  | Affine { slope; intercept } when slope > 0.0 ->
      Float.max 0.0 (affine_root slope intercept 0.0 y)
  | Shifted { offset; base = Affine { slope; intercept } } when slope > 0.0 ->
      Float.max 0.0 (affine_root slope intercept offset y)
  | Polynomial coeffs when single_term coeffs > 0 ->
      poly_root ~mult:false coeffs (single_term coeffs) y
  | Shifted { offset; base = Polynomial coeffs } when single_term coeffs > 0 ->
      Float.max 0.0 (poly_root ~mult:false coeffs (single_term coeffs) y -. offset)
  | Bpr { free_flow; capacity; alpha; beta } when alpha > 0.0 && free_flow > 0.0 ->
      bpr_root ~mult:false ~free_flow ~capacity ~alpha ~beta y
  | Shifted { offset; base = Bpr { free_flow; capacity; alpha; beta } }
    when alpha > 0.0 && free_flow > 0.0 ->
      Float.max 0.0 (bpr_root ~mult:false ~free_flow ~capacity ~alpha ~beta y -. offset)
  | Mm1 { capacity } -> mm1_root capacity 0.0 y
  | Shifted { offset; base = Mm1 { capacity } } -> Float.max 0.0 (mm1_root capacity offset y)
  | _ -> inverse_of eval t y

(* The marginal cost of 1/(c - x) is c/(c - x)², so its inverse is
   c - √(c/y); a shift by s is the same curve with capacity c - s. *)
let[@inline] mm1_marginal_root cap y =
  if y <= 1.0 /. cap then 0.0 else Float.max 0.0 (cap -. Float.sqrt (cap /. y))

let inverse_marginal t y =
  match t.kind with
  (* marginal of a·x + b is 2a·x + b *)
  | Affine { slope; intercept } when slope > 0.0 ->
      Float.max 0.0 (affine_marginal_root slope intercept 0.0 y)
  | Shifted { offset; base = Affine { slope; intercept } } when slope > 0.0 ->
      (* marginal of x ↦ a(s+x)+b is a(s+x)+b + x·a = 2a·x + (a·s + b) *)
      Float.max 0.0 (affine_marginal_root slope intercept (slope *. offset) y)
  | Polynomial coeffs when single_term coeffs > 0 ->
      poly_root ~mult:true coeffs (single_term coeffs) y
  | Bpr { free_flow; capacity; alpha; beta } when alpha > 0.0 && free_flow > 0.0 ->
      bpr_root ~mult:true ~free_flow ~capacity ~alpha ~beta y
  | Mm1 { capacity } -> mm1_marginal_root capacity y
  | Shifted { offset; base = Mm1 { capacity } } when capacity > offset ->
      mm1_marginal_root (capacity -. offset) y
  | _ -> inverse_of marginal t y

(* ℓ'' from the kind, for the kinds whose kind carries the whole
   function (a [Custom] base does not). *)
let rec closed_deriv2 = function Custom _ -> false | Shifted { base; _ } -> closed_deriv2 base | _ -> true

(* Σ i(i-1)·cᵢ·x^(i-2), by Horner *)
let[@inline] poly_deriv2 coeffs x =
  let acc = ref 0.0 in
  for i = Array.length coeffs - 1 downto 2 do
    acc := (!acc *. x) +. (float_of_int (i * (i - 1)) *. coeffs.(i))
  done;
  !acc

let[@inline] mm1_deriv2 capacity x =
  if x >= capacity then Float.infinity
  else 2.0 /. ((capacity -. x) *. (capacity -. x) *. (capacity -. x))

(* β = 1 is linear; β < 2 is infinitely curved at 0. *)
let[@inline] bpr_deriv2 free_flow capacity alpha beta x =
  if beta <= 1.0 then 0.0
  else
    free_flow *. alpha *. beta *. (beta -. 1.0) /. (capacity *. capacity)
    *. ((x /. capacity) ** (beta -. 2.0))

let rec kind_deriv2 kind x =
  match kind with
  | Constant _ | Affine _ | Custom _ -> 0.0
  | Polynomial coeffs -> poly_deriv2 coeffs x
  | Mm1 { capacity } -> mm1_deriv2 capacity x
  | Bpr { free_flow; capacity; alpha; beta } -> bpr_deriv2 free_flow capacity alpha beta x
  | Shifted { offset; base } -> kind_deriv2 base (offset +. x)

let deriv2 t x =
  if closed_deriv2 t.kind then kind_deriv2 t.kind x
  else
    let h = 1e-6 *. Float.max 1.0 (Float.abs x) in
    let lo = Float.max 0.0 (x -. h) in
    (t.deriv (x +. h) -. t.deriv lo) /. (x +. h -. lo)

let pp ppf t = pp_kind ppf t.kind
let to_string t = Format.asprintf "%a" pp t

let check_increasing ?(samples = 64) ?(hi = 10.0) t =
  let ok = ref true in
  let prev = ref (t.eval 0.0) in
  for i = 1 to samples do
    let x = hi *. float_of_int i /. float_of_int samples in
    let v = t.eval x in
    if v < !prev -. 1e-12 then ok := false;
    prev := v
  done;
  !ok

module Table = struct
  (* What an entry evaluates: a closed-form kind from its parameters, or
     the latency's own closures ([Custom], and [Shifted], whose nested
     offsets chain their additions in the closures; the summed offset of
     its kind would not reproduce those bits). In a level table (below)
     a [Poly_entry] is b + c·xᵈ and a [Constant_entry] takes no flow. *)
  type entry = Constant_entry | Affine_entry | Poly_entry | Mm1_entry | Bpr_entry | Closure_entry

  type latency = t

  (* Up to four coefficients per entry: c; slope, intercept; capacity;
     or t₀, capacity, α, β. [c] and [d] are allocated only when a BPR
     entry needs them, [coeffs] and [dcoeffs] (a polynomial's
     coefficients and its derivative's) only when a polynomial does. *)
  type t = {
    entries : entry array;
    a : float array;
    b : float array;
    c : float array;
    d : float array;
    coeffs : float array array;
    dcoeffs : float array array;
    lats : latency array;
  }

  let make (lats : latency array) =
    let n = Array.length lats in
    let sized p x = if Array.exists (fun l -> p l.kind) lats then Array.make n x else [||] in
    let bpr = function Bpr _ -> true | _ -> false in
    let poly = function Polynomial _ -> true | _ -> false in
    let entries = Array.make n Closure_entry in
    let a = Array.make n 0.0 and b = Array.make n 0.0 in
    let c = sized bpr 0.0 and d = sized bpr 0.0 in
    let coeffs = sized poly [||] and dcoeffs = sized poly [||] in
    Array.iteri
      (fun i l ->
        match l.kind with
        | Constant k ->
            entries.(i) <- Constant_entry;
            a.(i) <- k
        | Affine { slope; intercept } ->
            entries.(i) <- Affine_entry;
            a.(i) <- slope;
            b.(i) <- intercept
        | Polynomial cs ->
            entries.(i) <- Poly_entry;
            coeffs.(i) <- cs;
            dcoeffs.(i) <- derivative_coeffs cs
        | Mm1 { capacity } ->
            entries.(i) <- Mm1_entry;
            a.(i) <- capacity
        | Bpr { free_flow; capacity; alpha; beta } ->
            entries.(i) <- Bpr_entry;
            a.(i) <- free_flow;
            b.(i) <- capacity;
            c.(i) <- alpha;
            d.(i) <- beta
        | Shifted _ | Custom _ -> ())
      lats;
    { entries; a; b; c; d; coeffs; dcoeffs; lats }

  (* Entry [i] at [x]: ℓ(x), or with [marginal] ℓ(x) + x·ℓ'(x), the sum
     {!marginal} forms. Inlined into both kernels, so no float is boxed
     on a closed-form entry. *)
  let[@inline] value t ~marginal i x =
    match t.entries.(i) with
    | Constant_entry -> if marginal then t.a.(i) +. (x *. 0.0) else t.a.(i)
    | Affine_entry ->
        let v = affine_value t.a.(i) t.b.(i) x in
        if marginal then v +. (x *. t.a.(i)) else v
    | Poly_entry ->
        let v = horner t.coeffs.(i) x in
        if marginal then v +. (x *. horner t.dcoeffs.(i) x) else v
    | Mm1_entry ->
        let v = mm1_value t.a.(i) x in
        if marginal then v +. (x *. mm1_slope t.a.(i) x) else v
    | Bpr_entry ->
        let v = bpr_value t.a.(i) t.b.(i) t.c.(i) t.d.(i) x in
        if marginal then v +. (x *. bpr_slope t.a.(i) t.b.(i) t.c.(i) t.d.(i) x) else v
    | Closure_entry ->
        let l = t.lats.(i) in
        if marginal then l.eval x +. (x *. l.deriv x) else l.eval x

  let fill t ~marginal ~at ~into =
    let n = Array.length t.entries in
    if Array.length at < n || Array.length into < n then
      invalid_arg "Latency.Table.fill: arrays shorter than the table";
    Sgr_obs.Obs.add c_evals n;
    for i = 0 to n - 1 do
      into.(i) <- value t ~marginal i at.(i)
    done

  let directional t ~marginal ~base ~entries ~dirs ~len gamma =
    Sgr_obs.Obs.add c_evals len;
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      let i = entries.(k) and d = dirs.(k) in
      acc := !acc +. (d *. value t ~marginal i (base.(i) +. (gamma *. d)))
    done;
    !acc

  (* A gathered line: per support entry its base, direction and, for an
     affine entry, its slope and intercept, contiguous, so a probe of an
     all-affine line reads no table entry and dispatches on no kind.
     [affine] is false when some entry is not: that line's probes run
     every entry through the [value] kernel, by [index]. *)
  type line = {
    table : t;
    mutable marginal : bool;
    mutable len : int;
    mutable affine : bool;
    mutable index : int array;
    mutable base : float array;
    mutable dir : float array;
    mutable slope : float array;
    mutable intercept : float array;
  }

  (* The buffers grow with the longest support gathered, not the table:
     a Frank–Wolfe direction is a few hundred of 10^4 entries. *)
  let line t =
    {
      table = t;
      marginal = false;
      len = 0;
      affine = true;
      index = [||];
      base = [||];
      dir = [||];
      slope = [||];
      intercept = [||];
    }

  let gather l ~marginal ~base ~entries ~dirs ~len =
    let t = l.table in
    if len > Array.length t.entries then invalid_arg "Latency.Table.gather: longer than the table";
    if len > Array.length l.index then begin
      let size = Int.min (Array.length t.entries) (Int.max len (2 * Array.length l.index)) in
      l.index <- Array.make size 0;
      l.base <- Array.make size 0.0;
      l.dir <- Array.make size 0.0;
      l.slope <- Array.make size 0.0;
      l.intercept <- Array.make size 0.0
    end;
    l.marginal <- marginal;
    l.len <- len;
    l.affine <- true;
    for k = 0 to len - 1 do
      let i = entries.(k) in
      l.index.(k) <- i;
      l.base.(k) <- base.(i);
      l.dir.(k) <- dirs.(k);
      match t.entries.(i) with
      | Affine_entry ->
          l.slope.(k) <- t.a.(i);
          l.intercept.(k) <- t.b.(i)
      | _ -> l.affine <- false
    done

  (* Each term is [value]'s affine arm on the same operands, in the same
     order, so the sum is [directional]'s float. *)
  let slope_at l gamma =
    let len = l.len and marginal = l.marginal in
    Sgr_obs.Obs.add c_evals len;
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
        acc := !acc +. (d *. value l.table ~marginal l.index.(k) (base.(k) +. (gamma *. d)))
      done;
    !acc

  (* Level tables: the two kernels of a water-fill pass. *)

  (* An entry at a level does nothing (a constant, the water-fill's
     reservoir), runs a closed form from its parameters at the entry's
     offset s, or calls the closures of [shift s] of its latency. The
     closure arm takes the kinds with no closed-form inverse (at s, for
     the criterion), [Custom], and every [Shifted] latency. Per entry:
     the constant c; a line's slope, intercept and the shift a·s of its
     marginal cost; BPR's t₀, capacity, α and β; M/M/1's capacity; a
     polynomial's coefficients and its degree d. [shifted.(i)] is
     [shift s ℓ] on the closure arm. *)
  type curves = {
    marginal : bool;
    curves : entry array;
    offsets : float array;
    p : float array;
    q : float array;
    u : float array;
    v : float array;
    poly : float array array;
    degree : int array;
    shifted : latency array;
  }

  let curves ~marginal (lats : latency array) ~offsets =
    let n = Array.length lats in
    if Array.length offsets <> n then invalid_arg "Latency.Table.curves: offsets of another length";
    let tags = Array.make n Constant_entry in
    let p = Array.make n 0.0 and q = Array.make n 0.0 in
    let u = Array.make n 0.0 and v = Array.make n 0.0 in
    let poly = Array.make n [||] and degree = Array.make n 0 in
    (* The closure arm's latencies: [lats] itself until [shift] moves one. *)
    let shifted = ref lats in
    for i = 0 to n - 1 do
      let s = offsets.(i) and l = lats.(i) in
      if s < 0.0 then invalid_arg "Latency.Table.curves: negative offset";
      (* The dispatch of [inverse] (or [inverse_marginal]) on the kind of
         [shift s ℓ]. Exact test by design: [shift 0.] is the identity. *)
      let unshifted = (s = 0.0) [@lint.allow "float-equality"] in
      let d = match l.kind with Polynomial cs -> single_term cs | _ -> 0 in
      tags.(i) <-
        (match (kind_constant_value l.kind, l.kind) with
        | Some c, _ ->
            p.(i) <- c;
            Constant_entry
        | None, Affine { slope; intercept } when slope > 0.0 ->
            p.(i) <- slope;
            q.(i) <- intercept;
            if not unshifted then u.(i) <- slope *. s;
            Affine_entry
        | None, Polynomial cs when d > 0 && (unshifted || not marginal) ->
            poly.(i) <- cs;
            degree.(i) <- d;
            Poly_entry
        | None, Bpr { free_flow; capacity; alpha; beta }
          when alpha > 0.0 && free_flow > 0.0 && (unshifted || not marginal) ->
            p.(i) <- free_flow;
            q.(i) <- capacity;
            u.(i) <- alpha;
            v.(i) <- beta;
            Bpr_entry
        | None, Mm1 { capacity } when unshifted || (not marginal) || capacity > s ->
            p.(i) <- capacity;
            Mm1_entry
        | None, _ ->
            if not unshifted then begin
              if !shifted == lats then shifted := Array.copy lats;
              !shifted.(i) <- shift s l
            end;
            Closure_entry)
    done;
    { marginal; curves = tags; offsets; p; q; u; v; poly; degree; shifted = !shifted }

  let rigid c i = match c.curves.(i) with Constant_entry -> false | _ -> true

  (* [Tol.clamp_nonneg] (Float.max 0.), inlined. *)
  let[@inline] clamp_nonneg v = if v > 0.0 || Float.is_nan v then v else 0.0

  (* ℓ(z), ℓ'(z) and ℓ''(z) of a closed-form entry's latency, by the
     formulas of its constructor's closures and of [deriv2]. *)
  let[@inline] value_of c i z =
    match c.curves.(i) with
    | Affine_entry -> affine_value c.p.(i) c.q.(i) z
    | Poly_entry -> horner c.poly.(i) z
    | Bpr_entry -> bpr_value c.p.(i) c.q.(i) c.u.(i) c.v.(i) z
    | Mm1_entry -> mm1_value c.p.(i) z
    | Constant_entry | Closure_entry -> 0.0

  let[@inline] deriv_of c i z =
    match c.curves.(i) with
    | Affine_entry -> c.p.(i)
    | Poly_entry -> poly_deriv c.poly.(i) z
    | Bpr_entry -> bpr_slope c.p.(i) c.q.(i) c.u.(i) c.v.(i) z
    | Mm1_entry -> mm1_slope c.p.(i) z
    | Constant_entry | Closure_entry -> 0.0

  let[@inline] deriv2_of c i z =
    match c.curves.(i) with
    | Poly_entry -> poly_deriv2 c.poly.(i) z
    | Bpr_entry -> bpr_deriv2 c.p.(i) c.q.(i) c.u.(i) c.v.(i) z
    | Mm1_entry -> mm1_deriv2 c.p.(i) z
    | Constant_entry | Affine_entry | Closure_entry -> 0.0

  let activations c ~lines ~into =
    let n = Array.length c.curves in
    if Array.length lines < n || Array.length into < n then
      invalid_arg "Latency.Table.activations: arrays shorter than the table";
    let evals = ref 0 in
    for i = 0 to n - 1 do
      into.(i) <-
        (match c.curves.(i) with
        | Constant_entry -> c.p.(i)
        | _ when not (Float.is_nan lines.(i)) -> lines.(i)
        | Closure_entry ->
            let l = c.shifted.(i) in
            if c.marginal then marginal l 0.0 else eval l 0.0
        | _ ->
            (* [shift s ℓ] at 0 is ℓ at s +. 0., and its marginal cost
               adds 0 times the slope there. *)
            incr evals;
            let z = c.offsets.(i) +. 0.0 in
            let v = value_of c i z in
            if c.marginal then v +. (0.0 *. deriv_of c i z) else v)
    done;
    if !evals > 0 then Sgr_obs.Obs.add c_evals !evals

  (* A closed-form entry's flow at level [y] before the floor: [inverse]
     (or [inverse_marginal]) of [shift s ℓ], whose arms float-reduce to
     these at s (at s = 0, v -. 0. is v). Every arm is float arithmetic,
     so the result stays unboxed. *)
  let[@inline] flow_of c i y =
    let s = c.offsets.(i) in
    match c.curves.(i) with
    | Affine_entry ->
        if c.marginal then affine_marginal_root c.p.(i) c.q.(i) c.u.(i) y
        else affine_root c.p.(i) c.q.(i) s y
    | Poly_entry -> poly_root ~mult:c.marginal c.poly.(i) c.degree.(i) y -. s
    | Bpr_entry ->
        bpr_root ~mult:c.marginal ~free_flow:c.p.(i) ~capacity:c.q.(i) ~alpha:c.u.(i)
          ~beta:c.v.(i) y
        -. s
    | Mm1_entry -> if c.marginal then mm1_marginal_root (c.p.(i) -. s) y else mm1_root c.p.(i) s y
    | Constant_entry | Closure_entry -> 0.0

  let flows c y ~into =
    let n = Array.length c.curves in
    if Array.length into < n then invalid_arg "Latency.Table.flows: array shorter than the table";
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      match c.curves.(i) with
      | Constant_entry -> ()
      | Closure_entry ->
          let l = c.shifted.(i) in
          let x = clamp_nonneg (if c.marginal then inverse_marginal l y else inverse l y) in
          into.(i) <- x;
          sum := !sum +. x
      | _ ->
          let x = clamp_nonneg (flow_of c i y) in
          into.(i) <- x;
          sum := !sum +. x
    done;
    !sum

  (* 1/gᵢ'(x) with gᵢ' = ℓ' (Nash) or 2ℓ' + x·ℓ'' (optimum) of
     [shift s ℓ], whose deriv closure reads ℓ' at s +. x. *)
  let[@inline] rate_of c i x =
    let slope =
      match c.curves.(i) with
      | Closure_entry ->
          let l = c.shifted.(i) in
          if c.marginal then (2.0 *. l.deriv x) +. if x > 0.0 then x *. deriv2 l x else 0.0
          else l.deriv x
      | _ ->
          let z = c.offsets.(i) +. x in
          if c.marginal then
            (2.0 *. deriv_of c i z) +. if x > 0.0 then x *. deriv2_of c i z else 0.0
          else deriv_of c i z
    in
    1.0 /. slope

  let rates c x ~into =
    let n = Array.length c.curves in
    if Array.length x < n || Array.length into < n then
      invalid_arg "Latency.Table.rates: arrays shorter than the table";
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      let xi = x.(i) in
      if xi > 0.0 then begin
        let w = rate_of c i xi in
        into.(i) <- w;
        sum := !sum +. w
      end
      else into.(i) <- 0.0
    done;
    !sum

  let rate = rate_of
end
