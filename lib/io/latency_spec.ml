module L = Sgr_latency.Latency

let number s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> Some v
  | _ -> None

let parse_affine s =
  (* Forms accepted: "x", "Ax", "A x", "Ax + B", "x + B", "B". *)
  let compact = String.concat "" (String.split_on_char ' ' s) in
  match String.index_opt compact 'x' with
  | None -> (
      match number compact with
      | Some c when c >= 0.0 -> Ok (L.constant c)
      | Some _ -> Error "negative constant latency"
      | None -> Error (Printf.sprintf "cannot parse %S as a number or affine expression" s))
  | Some i ->
      let coeff_str = String.sub compact 0 i in
      let rest = String.sub compact (i + 1) (String.length compact - i - 1) in
      let coeff =
        if coeff_str = "" then Some 1.0
        else if coeff_str = "-" then None
        else number coeff_str
      in
      let intercept =
        if rest = "" then Some 0.0
        else if String.length rest > 1 && rest.[0] = '+' then
          number (String.sub rest 1 (String.length rest - 1))
        else None
      in
      (match (coeff, intercept) with
      | Some a, Some b when a >= 0.0 && b >= 0.0 -> Ok (L.affine ~slope:a ~intercept:b)
      | Some _, Some _ -> Error "negative coefficient in affine latency"
      | _ -> Error (Printf.sprintf "cannot parse %S as an affine expression" s))

(* [String.trim]'s blanks. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* [parse_sub], [number_sub] and [canonical_hex] take a slice of their
   string and check it once, by name; the scanners behind them read the
   slice unchecked. *)
let check_slice name s lo hi =
  if lo < 0 || lo > hi || hi > String.length s then
    invalid_arg
      (Printf.sprintf "Latency_spec.%s: the slice [%d, %d) is not within a string of length %d"
         name lo hi (String.length s))

(* The words of [s.[lo .. hi)] as the grammar reads them: the pieces
   between spaces, each trimmed of blanks, empty ones dropped, as
   offsets in one pass: [w.(0)] is their count [nw] and word [j] is
   [s.[w.(2j+1) .. w.(2j+2))]. Room for four words, enough for every
   spec but a [poly] or a [shifted] chain, grows by doubling.

   Unchecked: the caller has checked [0 <= lo <= hi <= String.length
   s], and every offset read lies in [lo, hi): [i] and [j] are read
   only while below [hi], [a] only while below [b <= hi], and [b - 1]
   only while above [a >= lo]. *)
let words s lo hi =
  let w = ref [| 0; 0; 0; 0; 0; 0; 0; 0; 0 |] and count = ref 0 and i = ref lo in
  while !i < hi do
    if String.unsafe_get s !i = ' ' then incr i
    else begin
      let j = ref !i in
      while !j < hi && String.unsafe_get s !j <> ' ' do
        incr j
      done;
      let a = ref !i and b = ref !j in
      while !a < !b && is_blank (String.unsafe_get s !a) do
        incr a
      done;
      while !b > !a && is_blank (String.unsafe_get s (!b - 1)) do
        decr b
      done;
      if !a < !b then begin
        if (2 * !count) + 3 > Array.length !w then begin
          let grown = Array.make ((2 * Array.length !w) + 1) 0 in
          Array.blit !w 0 grown 0 (Array.length !w);
          w := grown
        end;
        !w.((2 * !count) + 1) <- !a;
        !w.((2 * !count) + 2) <- !b;
        incr count
      end;
      i := !j
    end
  done;
  !w.(0) <- !count;
  !w
[@@lint.allow "unchecked-access"]

type keyword = Const | Mm1 | Bpr | Poly | Affine | Shifted | Expression

(* Word [j]'s keyword, ignoring ASCII case (the grammar lowercases
   words before it compares them): its length and first letter pick
   the one keyword it can be, and only the rest of that one is
   compared ([rest_is], given a word as long as [kw]). A word that is
   none starts an affine expression. Words are never empty. *)
let rest_is s a kw =
  let i = ref 1 in
  while !i < String.length kw && Char.lowercase_ascii s.[a + !i] = kw.[!i] do
    incr i
  done;
  !i = String.length kw

let keyword s w j =
  let a = w.((2 * j) + 1) in
  match (w.((2 * j) + 2) - a, Char.lowercase_ascii s.[a]) with
  | 5, 'c' when rest_is s a "const" -> Const
  | 3, 'm' when rest_is s a "mm1" -> Mm1
  | 3, 'b' when rest_is s a "bpr" -> Bpr
  | 4, 'p' when rest_is s a "poly" -> Poly
  | 6, 'a' when rest_is s a "affine" -> Affine
  | 7, 's' when rest_is s a "shifted" -> Shifted
  | _ -> Expression

(* The value of each lowercase hex digit by character code, and 16 for
   every other character. *)
let hex_values =
  Array.init 256 (fun i ->
      match Char.chr i with '0' .. '9' -> i - 48 | 'a' .. 'f' -> i - 87 | _ -> 16)

(* A [%h] literal of a normal float, read in place into [xs.(k)]:
   [-]0x1[.h…h]p±e with at most 13 lowercase hex digits and e in
   [-1022, 1023]. The digits are the top of the 52-bit fraction and
   e + 1023 the biased exponent, so the float is built from its sign,
   exponent and fraction bits: exactly the float [float_of_string]
   reads. [false], writing nothing, on anything else.

   Unchecked: the caller has checked [0 <= lo <= hi <= String.length
   s]. Every offset read is below [hi] and at least [lo]: [lo] is read
   only when below [hi], the three bytes of [0x1] only when [i + 4 <=
   hi], each fraction digit and exponent digit while [i < hi], and the
   [p] and its sign only when [i + 2 < hi]. A byte's code indexes the
   256-entry digit table. *)
let hex_at s lo hi xs k =
  let i = ref lo and neg = lo < hi && String.unsafe_get s lo = '-' in
  if neg then incr i;
  if
    !i + 4 > hi
    || String.unsafe_get s !i <> '0'
    || String.unsafe_get s (!i + 1) <> 'x'
    || String.unsafe_get s (!i + 2) <> '1'
  then false
  else begin
    i := !i + 3;
    let frac = ref 0 and digits = ref 0 and ok = ref true in
    if !i < hi && String.unsafe_get s !i = '.' then begin
      incr i;
      while !ok && !i < hi && String.unsafe_get s !i <> 'p' do
        let d = Array.unsafe_get hex_values (Char.code (String.unsafe_get s !i)) in
        if d > 15 || !digits = 13 then ok := false
        else begin
          frac := (!frac lsl 4) lor d;
          incr digits;
          incr i
        end
      done;
      if !digits = 0 then ok := false
    end;
    if
      not
        (!ok
        && !i + 2 < hi
        && String.unsafe_get s !i = 'p'
        && (String.unsafe_get s (!i + 1) = '+' || String.unsafe_get s (!i + 1) = '-'))
    then false
    else begin
      let negexp = String.unsafe_get s (!i + 1) = '-' in
      i := !i + 2;
      let e = ref 0 in
      while !ok && !i < hi do
        let c = String.unsafe_get s !i in
        if c < '0' || c > '9' || !e > 1_023 then ok := false
        else begin
          e := (10 * !e) + (Char.code c - 48);
          incr i
        end
      done;
      let e = if negexp then - !e else !e in
      !ok && e >= -1_022 && e <= 1_023
      &&
      let bits =
        Int64.logor
          (Int64.shift_left (Int64.of_int (e + 1_023)) 52)
          (Int64.of_int (!frac lsl (52 - (4 * !digits))))
      in
      let v = Int64.float_of_bits bits in
      xs.(k) <- (if neg then -.v else v);
      true
    end
  end
[@@lint.allow "unchecked-access"]

let canonical_hex s lo hi xs k =
  check_slice "canonical_hex" s lo hi;
  hex_at s lo hi xs k

(* [number] on [s.[lo .. hi)] into [xs.(k)]; [false] when it is none.
   Only a literal that is not canonical hex is cut out of the text. *)
let read_number s lo hi xs k =
  hex_at s lo hi xs k
  ||
  match number (String.sub s lo (hi - lo)) with
  | Some v ->
      xs.(k) <- v;
      true
  | None -> false

let number_sub s lo hi =
  check_slice "number_sub" s lo hi;
  let x = [| 0.0 |] in
  if read_number s lo hi x 0 then Some x.(0) else None

(* The numbers of words [j + 1 .. nw), or [[||]] when one is not a
   finite number: every keyword form refuses no numbers at all with the
   message it gives a malformed one. Up to four numbers, as many as
   every form but a long [poly] takes, the array is a literal rather
   than an [Array.make] call. *)
let floats s w j nw =
  let xs =
    match nw - j - 1 with
    | 0 -> [||]
    | 1 -> [| 0.0 |]
    | 2 -> [| 0.0; 0.0 |]
    | 3 -> [| 0.0; 0.0; 0.0 |]
    | 4 -> [| 0.0; 0.0; 0.0; 0.0 |]
    | n -> Array.make n 0.0
  in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length xs do
    let i = j + 1 + !k in
    ok := read_number s w.((2 * i) + 1) w.((2 * i) + 2) xs !k;
    incr k
  done;
  if !ok then xs else [||]

let shifted_usage = "shifted expects 'shifted OFFSET SPEC' with a nonnegative offset"

(* The text the affine-expression form parses and quotes, from word [j]
   on: the spec itself, [s.[lo .. hi)] trimmed, original case, at depth
   0; under a [shifted] its words lowercased and joined by single
   spaces, as if re-parsed on its own. *)
let text s w j ~lo ~hi ~depth =
  if depth = 0 then String.trim (String.sub s lo (hi - lo))
  else
    String.concat " "
      (List.init (w.(0) - j) (fun k ->
           let a = w.((2 * (j + k)) + 1) in
           String.lowercase_ascii (String.sub s a (w.((2 * (j + k)) + 2) - a))))

(* A specification that is not [shifted]: words [j ..], the first its
   keyword [kw]. *)
let base s w j kw ~lo ~hi ~depth =
  let nw = w.(0) in
  match kw with
  | Const -> (
      match floats s w j nw with
      | [| c |] when c >= 0.0 -> Ok (L.constant c)
      | _ -> Error "const expects one nonnegative number")
  | Mm1 -> (
      match floats s w j nw with
      | [| cap |] when cap > 0.0 -> Ok (L.mm1 ~capacity:cap)
      | _ -> Error "mm1 expects one positive capacity")
  | Bpr -> (
      match floats s w j nw with
      | [| t0; cap |] -> (
          try Ok (L.bpr ~free_flow:t0 ~capacity:cap ()) with Invalid_argument m -> Error m)
      | [| t0; cap; alpha; beta |] -> (
          try Ok (L.bpr ~free_flow:t0 ~capacity:cap ~alpha ~beta ())
          with Invalid_argument m -> Error m)
      | _ -> Error "bpr expects 'bpr T0 CAP [ALPHA BETA]'")
  | Poly -> (
      match floats s w j nw with
      | [||] -> Error "poly expects at least one coefficient"
      | coeffs -> ( try Ok (L.polynomial coeffs) with Invalid_argument m -> Error m))
  | Affine -> (
      (* Keyword form of the [Ax + B] expression. Unlike the expression
         form it tokenizes on whitespace, so hex float literals
         (["0x1.8p+0"], whose 'x' would be read as the variable) are
         accepted — this is what {!print_canonical} emits. *)
      match floats s w j nw with
      | [| a; b |] when a >= 0.0 && b >= 0.0 -> Ok (L.affine ~slope:a ~intercept:b)
      | _ -> Error "affine expects 'affine SLOPE INTERCEPT' with nonnegative numbers")
  | Shifted | Expression -> parse_affine (text s w j ~lo ~hi ~depth)

let fail depth m = Error (String.concat "" (List.init depth (fun _ -> "shifted: ")) ^ m)

(* [shifted S SPEC] is x ↦ SPEC(S + x): the a-posteriori latency of a
   link pre-loaded with S units of flow. Level d of a chain of [shifted]
   heads is words 2d and 2d + 1, so the chain is walked in one pass,
   reading each offset into [off], then the offsets are applied
   innermost first: a spec nested d deep costs O(d), and an error
   inside it carries one "shifted: " per level it sits under. [shift]
   canonicalizes the nesting by summing the offsets, so the round trip
   through {!print_canonical} is still a fixed point. *)
let offset s w d off = read_number s w.((4 * d) + 3) w.((4 * d) + 4) off 0

let rec chain s w ~lo ~hi depth off =
  let j = 2 * depth in
  match keyword s w j with
  | Shifted ->
      if w.(0) - j >= 3 && offset s w depth off && off.(0) >= 0.0 then
        chain s w ~lo ~hi (depth + 1) off
      else fail depth shifted_usage
  | kw -> (
      match base s w j kw ~lo ~hi ~depth with
      | Ok l ->
          let l = ref l in
          for d = depth - 1 downto 0 do
            ignore (offset s w d off);
            l := L.shift off.(0) !l
          done;
          Ok !l
      | Error m -> fail depth m)

let parse_sub s lo hi =
  check_slice "parse_sub" s lo hi;
  let w = words s lo hi in
  if w.(0) = 0 then Error "empty latency specification"
  else
    match keyword s w 0 with
    | Shifted -> chain s w ~lo ~hi 0 [| 0.0 |]
    | kw -> base s w 0 kw ~lo ~hi ~depth:0

let parse s = parse_sub s 0 (String.length s)

let parse_exn s =
  match parse s with Ok l -> l | Error m -> invalid_arg ("Latency_spec.parse: " ^ m)

let print lat =
  let num f =
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    s
  in
  let rec go = function
    | L.Constant c -> num c
    | L.Affine { slope; intercept } ->
        (* Serializer cosmetics: exact zero decides whether the term shows. *)
        if (intercept = 0.0) [@lint.allow "float-equality"] then Printf.sprintf "%sx" (num slope)
        else Printf.sprintf "%sx + %s" (num slope) (num intercept)
    | L.Polynomial coeffs ->
        "poly " ^ String.concat " " (List.map num (Array.to_list coeffs))
    | L.Mm1 { capacity } -> Printf.sprintf "mm1 %s" (num capacity)
    | L.Bpr { free_flow; capacity; alpha; beta } ->
        Printf.sprintf "bpr %s %s %s %s" (num free_flow) (num capacity) (num alpha) (num beta)
    | L.Shifted { offset; base } -> Printf.sprintf "shifted %s %s" (num offset) (go base)
    | L.Custom _ -> invalid_arg "Latency_spec.print: custom latencies are not serializable"
  in
  go (L.kind lat)

(* Canonical form: keyword head + hex float literals ([%h]), one fixed
   field order per kind. [float_of_string] reads hex literals back
   bit-exactly, so [parse (print_canonical l)] reproduces [l]'s kind and
   parameters without rounding — the property the instance fingerprint
   rests on. The constructors normalize degenerate kinds (zero slope,
   constant-only polynomial) before a value can reach the printer, so
   printing is also stable across one round trip. *)
let print_canonical lat =
  let h = Printf.sprintf "%h" in
  let rec go = function
    | L.Constant c -> Printf.sprintf "const %s" (h c)
    | L.Affine { slope; intercept } -> Printf.sprintf "affine %s %s" (h slope) (h intercept)
    | L.Polynomial coeffs ->
        "poly " ^ String.concat " " (List.map h (Array.to_list coeffs))
    | L.Mm1 { capacity } -> Printf.sprintf "mm1 %s" (h capacity)
    | L.Bpr { free_flow; capacity; alpha; beta } ->
        Printf.sprintf "bpr %s %s %s %s" (h free_flow) (h capacity) (h alpha) (h beta)
    | L.Shifted { offset; base } ->
        (* [shift] flattens nesting on construction, so the offset here
           is the total and [base] is never itself [Shifted]: one round
           trip reproduces the kind bit-exactly and the printer is a
           fixed point of it. *)
        Printf.sprintf "shifted %s %s" (h offset) (go base)
    | L.Custom _ ->
        invalid_arg "Latency_spec.print_canonical: custom latencies are not serializable"
  in
  go (L.kind lat)
