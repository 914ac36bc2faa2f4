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

let parse_floats ws =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | w :: rest -> ( match number w with Some f -> go (f :: acc) rest | None -> None)
  in
  go [] ws

(* A word as the grammar reads it: trimmed, lowercased, or [""]. The
   copy is skipped when there is nothing to lowercase. *)
let normalize w =
  let w = String.trim w in
  if String.exists (fun c -> c >= 'A' && c <= 'Z') w then String.lowercase_ascii w else w

let shifted_usage = "shifted expects 'shifted OFFSET SPEC' with a nonnegative offset"

(* A specification that is not [shifted], from its normalized words. *)
let base ~text = function
  | "const" :: rest -> (
      match parse_floats rest with
      | Some [ c ] when c >= 0.0 -> Ok (L.constant c)
      | _ -> Error "const expects one nonnegative number")
  | "mm1" :: rest -> (
      match parse_floats rest with
      | Some [ cap ] when cap > 0.0 -> Ok (L.mm1 ~capacity:cap)
      | _ -> Error "mm1 expects one positive capacity")
  | "bpr" :: rest -> (
      match parse_floats rest with
      | Some [ t0; cap ] -> (
          try Ok (L.bpr ~free_flow:t0 ~capacity:cap ()) with Invalid_argument m -> Error m)
      | Some [ t0; cap; alpha; beta ] -> (
          try Ok (L.bpr ~free_flow:t0 ~capacity:cap ~alpha ~beta ())
          with Invalid_argument m -> Error m)
      | _ -> Error "bpr expects 'bpr T0 CAP [ALPHA BETA]'")
  | "poly" :: rest -> (
      match parse_floats rest with
      | Some (_ :: _ as coeffs) -> (
          try Ok (L.polynomial (Array.of_list coeffs)) with Invalid_argument m -> Error m)
      | _ -> Error "poly expects at least one coefficient")
  | "affine" :: rest -> (
      (* Keyword form of the [Ax + B] expression. Unlike the expression
         form it tokenizes on whitespace, so hex float literals
         (["0x1.8p+0"], whose 'x' would be read as the variable) are
         accepted — this is what {!print_canonical} emits. *)
      match parse_floats rest with
      | Some [ a; b ] when a >= 0.0 && b >= 0.0 -> Ok (L.affine ~slope:a ~intercept:b)
      | _ -> Error "affine expects 'affine SLOPE INTERCEPT' with nonnegative numbers")
  | _ -> parse_affine (text ())

(* One specification from its normalized words [lw], none of them
   empty. [text ()] is the specification as one string, original case,
   which the affine-expression form parses and quotes; the base of a
   [shifted] is read from its words joined by single spaces, lowercase,
   as if re-parsed on its own. A chain of [shifted] heads is walked in
   one pass, collecting the offsets (innermost first), so a spec nested
   d deep costs O(d), and an error inside it carries one "shifted: "
   per level it sits under. *)
let of_normalized ~text lw =
  let fail depth m = Error (String.concat "" (List.init depth (fun _ -> "shifted: ")) ^ m) in
  let rec go depth offsets lw =
    match lw with
    | "shifted" :: off :: (_ :: _ as rest) -> (
        (* [shifted S SPEC] is x ↦ SPEC(S + x): the a-posteriori latency
           of a link pre-loaded with S units of flow. The base is a full
           specification, so nesting parses — and [shift] canonicalizes
           it by summing the offsets, so the round trip through
           {!print_canonical} is still a fixed point. *)
        match number off with
        | Some s when s >= 0.0 -> go (depth + 1) (s :: offsets) rest
        | _ -> fail depth shifted_usage)
    | [ "shifted" ] | [ "shifted"; _ ] -> fail depth shifted_usage
    | _ -> (
        let text () = if depth = 0 then text () else String.concat " " lw in
        match base ~text lw with
        | Ok l -> Ok (List.fold_left (fun l s -> L.shift s l) l offsets)
        | Error m -> fail depth m)
  in
  go 0 [] lw

let of_words ~text words =
  match List.filter (fun w -> w <> "") (List.map normalize words) with
  | [] -> Error "empty latency specification"
  | lw -> of_normalized ~text lw

let parse s = of_words ~text:(fun () -> String.trim s) (String.split_on_char ' ' s)
let parse_words words = of_words ~text:(fun () -> String.trim (String.concat " " words)) words

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
