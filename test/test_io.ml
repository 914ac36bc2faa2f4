(* Tests for the textual latency specs and instance files. *)

open Helpers
module LS = Sgr_io.Latency_spec
module IF = Sgr_io.Instance_file
module L = Sgr_latency.Latency
module Links = Sgr_links.Links
module Net = Sgr_network.Network
module W = Sgr_workloads.Workloads

let parse_ok s =
  match LS.parse s with
  | Ok l -> l
  | Error m -> Alcotest.failf "parse %S failed: %s" s m

let parse_err s =
  match LS.parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s

let test_affine_specs () =
  approx "x" 2.0 (L.eval (parse_ok "x") 2.0);
  approx "2x" 4.0 (L.eval (parse_ok "2x") 2.0);
  approx "2.5x + 0.5" 5.5 (L.eval (parse_ok "2.5x + 0.5") 2.0);
  approx "compact form" 5.5 (L.eval (parse_ok "2.5x+0.5") 2.0);
  approx "x + 1" 3.0 (L.eval (parse_ok "x + 1") 2.0);
  approx "bare number is constant" 0.7 (L.eval (parse_ok "0.7") 5.0);
  check_true "bare constant" (L.is_constant (parse_ok "0.7"))

let test_keyword_specs () =
  approx "const" 0.7 (L.eval (parse_ok "const 0.7") 9.0);
  approx "mm1" 1.0 (L.eval (parse_ok "mm1 2.0") 1.0);
  approx "poly" 13.0 (L.eval (parse_ok "poly 1 0 3") 2.0);
  approx "bpr default" 1.15 (L.eval (parse_ok "bpr 1 2") 2.0);
  approx "bpr explicit" 2.0 (L.eval (parse_ok "bpr 1 2 1 4") 2.0);
  check_true "case-insensitive" (L.is_constant (parse_ok "CONST 1.0"))

let test_bad_specs () =
  parse_err "";
  parse_err "frogs";
  parse_err "-2x";
  parse_err "x - 1";
  parse_err "const";
  parse_err "const -1";
  parse_err "mm1 0";
  parse_err "poly";
  parse_err "bpr 1";
  parse_err "shifted";
  parse_err "shifted 1";
  parse_err "shifted -1 x";
  parse_err "shifted 1 frogs"

let test_spec_roundtrip () =
  List.iter
    (fun lat ->
      let printed = LS.print lat in
      let reparsed = parse_ok printed in
      List.iter
        (fun x ->
          approx (Printf.sprintf "roundtrip %s at %g" printed x) (L.eval lat x)
            (L.eval reparsed x))
        [ 0.0; 0.5; 1.5 ])
    [
      L.linear 1.0;
      L.affine ~slope:2.5 ~intercept:(1.0 /. 6.0);
      L.constant 0.7;
      L.mm1 ~capacity:2.0;
      L.bpr ~free_flow:1.0 ~capacity:2.0 ();
      L.polynomial [| 1.0; 0.0; 3.0 |];
      L.shift 0.5 (L.affine ~slope:2.0 ~intercept:1.0);
      L.shift 0.25 (L.shift 0.75 (L.mm1 ~capacity:4.0));
    ]

let test_shifted_spec_canonicalizes () =
  (* The [shifted] keyword form parses recursively, and nested shifts
     collapse on construction: the parsed kind carries the summed offset
     over an unshifted base. *)
  let lat = parse_ok "shifted 0.5 shifted 1.5 affine 2 1" in
  (match L.kind lat with
  | L.Shifted { offset; base = L.Affine { slope; intercept } } ->
      approx "offsets sum" 2.0 offset;
      approx "slope" 2.0 slope;
      approx "intercept" 1.0 intercept
  | _ -> Alcotest.fail "expected a single Shifted-of-Affine kind");
  approx "evaluates as base(offset + x)" 8.0 (L.eval lat 1.5);
  (* Zero offset is the identity, not a [Shifted] node. *)
  match L.kind (parse_ok "shifted 0 mm1 2") with
  | L.Mm1 _ -> ()
  | _ -> Alcotest.fail "zero shift must parse to the bare base"

let test_spec_print_rejects_custom () =
  match LS.print (L.custom ~eval:(fun x -> x) ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "custom latencies are not serializable"

let test_links_file () =
  let text = "# a comment\nlinks\ndemand 1.0\nlink x\nlink const 1\n" in
  match IF.parse text with
  | Ok (IF.Links t) ->
      Alcotest.(check int) "two links" 2 (Links.num_links t);
      approx "pigou nash" 1.0 (Links.cost t (Links.nash t).assignment)
  | Ok (IF.Network _) -> Alcotest.fail "parsed as network"
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_network_file () =
  let text =
    "network\nnodes 3\nedge 0 1 x\nedge 1 2 x\nedge 0 2 const 3\ncommodity 0 2 1.0\n"
  in
  match IF.parse text with
  | Ok (IF.Network net) ->
      Alcotest.(check int) "3 edges" 3 (Sgr_graph.Digraph.num_edges net.Net.graph);
      approx "demand" 1.0 (Net.total_demand net)
  | Ok (IF.Links _) -> Alcotest.fail "parsed as links"
  | Error m -> Alcotest.failf "parse failed: %s" m

let expect_error text fragment =
  match IF.parse text with
  | Error m ->
      if not (String.length m >= String.length fragment) then
        Alcotest.failf "unexpected error %S" m
  | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" text

let test_file_errors () =
  expect_error "" "empty";
  expect_error "bogus\n" "unknown";
  expect_error "links\nlink x\n" "demand";
  expect_error "links\ndemand 1\n" "link";
  expect_error "links\ndemand 1\nlink x\nfrob 3\n" "keyword";
  expect_error "network\nedge 0 1 x\ncommodity 0 1 1\n" "nodes";
  expect_error "network\nnodes 2\ncommodity 0 1 1\n" "edge";
  expect_error "network\nnodes 2\nedge 0 1 x\n" "commodity";
  expect_error "network\nnodes 2\nedge 0 5 x\ncommodity 0 1 1\n" "range";
  expect_error "links\ndemand 1\nlink owl\n" "parse"

let test_error_line_numbers () =
  match IF.parse "links\ndemand 1.0\nlink x\nlink zebra\n" with
  | Error m -> check_true "line number mentioned" (String.length m > 0 && String.sub m 0 4 = "line")
  | Ok _ -> Alcotest.fail "should fail"

(* [float_of_string] reads "inf" and "nan"; instance files must reject
   them like malformed text, on the offending line, before a solver sees
   them. *)
let expect_line_error line text =
  match IF.parse text with
  | Error m ->
      let prefix = Printf.sprintf "line %d: " line in
      if not (String.starts_with ~prefix m) then
        Alcotest.failf "error %S does not start with %S" m prefix
  | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" text

let test_rejects_infinite_demand () =
  List.iter
    (fun d -> expect_line_error 2 (Printf.sprintf "links\ndemand %s\nlink x\n" d))
    [ "inf"; "-inf"; "nan"; "infinity" ]

let test_rejects_infinite_commodity_demand () =
  List.iter
    (fun d ->
      expect_line_error 5
        (Printf.sprintf "network\nnodes 3\nedge 0 1 x\nedge 1 2 x\ncommodity 0 2 %s\n" d))
    [ "inf"; "nan" ]

let test_rejects_infinite_slope () =
  List.iter
    (fun spec -> expect_line_error 3 (Printf.sprintf "links\ndemand 1\nlink %s\n" spec))
    [ "infx"; "nanx"; "affine inf 0"; "poly 1 inf"; "bpr inf 1"; "mm1 inf"; "const inf" ]

let test_rejects_infinite_intercept () =
  List.iter
    (fun spec -> expect_line_error 3 (Printf.sprintf "links\ndemand 1\nlink %s\n" spec))
    [ "1x + inf"; "x + nan"; "inf"; "affine 1 inf"; "shifted inf x" ]

let test_links_roundtrip () =
  let printed = IF.print_links W.fig456 in
  match IF.parse printed with
  | Ok (IF.Links t) ->
      approx "same nash cost"
        (Links.cost W.fig456 (Links.nash W.fig456).assignment)
        (Links.cost t (Links.nash t).assignment);
      approx "same beta" (Stackelberg.Optop.beta W.fig456) (Stackelberg.Optop.beta t)
  | _ -> Alcotest.fail "roundtrip failed"

let test_network_roundtrip () =
  let net = W.fig7 () in
  let printed = IF.print_network net in
  match IF.parse printed with
  | Ok (IF.Network net') ->
      approx ~eps:1e-5 "same beta" (Stackelberg.Mop.beta net) (Stackelberg.Mop.beta net')
  | _ -> Alcotest.fail "roundtrip failed"

let test_two_commodity_roundtrip () =
  let net = W.two_commodity () in
  match IF.parse (IF.print_network net) with
  | Ok (IF.Network net') ->
      Alcotest.(check int) "two commodities survive" 2 (Array.length net'.Net.commodities)
  | _ -> Alcotest.fail "roundtrip failed"

let test_load_missing_file () =
  match IF.load "/nonexistent/instance.sgr" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must fail"

let prop_random_links_roundtrip =
  Helpers.qcheck ~count:30 "random links instances round-trip through the file format"
    QCheck.small_nat (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 1) in
      let t =
        match Sgr_numerics.Prng.int rng 3 with
        | 0 -> W.random_affine_links rng ~m:(2 + Sgr_numerics.Prng.int rng 5) ()
        | 1 -> W.random_polynomial_links rng ~m:(2 + Sgr_numerics.Prng.int rng 5) ()
        | _ -> W.random_mm1_links rng ~m:(2 + Sgr_numerics.Prng.int rng 5) ()
      in
      match IF.parse (IF.print_links t) with
      | Ok (IF.Links t') ->
          let c = Links.cost t (Links.nash t).assignment in
          let c' = Links.cost t' (Links.nash t').assignment in
          Sgr_numerics.Tolerance.approx ~eps:1e-9 c c'
      | _ -> false)

let prop_random_networks_roundtrip =
  Helpers.qcheck ~count:20 "random networks round-trip through the file format"
    QCheck.small_nat (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 1) in
      let net =
        if Sgr_numerics.Prng.bool rng then
          W.random_layered_network rng ~layers:(1 + Sgr_numerics.Prng.int rng 2)
            ~width:(1 + Sgr_numerics.Prng.int rng 2) ()
        else W.random_multicommodity rng ~rows:3 ~cols:3 ~commodities:2 ()
      in
      match IF.parse (IF.print_network net) with
      | Ok (IF.Network net') ->
          let module Eq = Sgr_network.Equilibrate in
          let module Obj = Sgr_network.Objective in
          let c = Net.cost net (Eq.solve Obj.Wardrop net).Eq.edge_flow in
          let c' = Net.cost net' (Eq.solve Obj.Wardrop net').Eq.edge_flow in
          Sgr_numerics.Tolerance.approx ~eps:1e-6 c c'
      | _ -> false)

(* The canonical serialization ([%h] floats, keyword forms) must be a
   *bit-exact* fixpoint: parse ∘ print is the identity on the printed
   bytes, not just on evaluation up to tolerance. *)
let canonical_latencies (a, b) =
  [
    L.constant (a +. 0.1);
    L.affine ~slope:(a +. 0.1) ~intercept:b;
    L.polynomial [| b; 0.0; a +. 0.1 |];
    L.mm1 ~capacity:(a +. b +. 1.0);
    L.bpr ~free_flow:(a +. 0.1) ~capacity:(b +. 1.0) ();
    L.shift (a +. 0.1) (L.affine ~slope:(b +. 0.1) ~intercept:a);
    L.shift (a +. 0.1) (L.shift (b +. 0.1) (L.mm1 ~capacity:(a +. b +. 1.0)));
    L.shift (b +. 0.1) (L.polynomial [| a; 0.0; b +. 0.1 |]);
  ]

let prop_canonical_spec_roundtrip =
  Helpers.qcheck ~count:200 "canonical latency specs: parse∘print is bit-exact"
    QCheck.(pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun seed ->
      List.for_all
        (fun lat ->
          let printed = LS.print_canonical lat in
          match LS.parse printed with
          | Error _ -> false
          | Ok lat' ->
              String.equal printed (LS.print_canonical lat')
              && Float.equal (L.eval lat 1.2345) (L.eval lat' 1.2345))
        (canonical_latencies seed))

let prop_canonical_instance_roundtrip =
  Helpers.qcheck ~count:50 "canonical instance files: parse∘to_string is a fixpoint"
    QCheck.small_nat (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 1) in
      let inst =
        match Sgr_numerics.Prng.int rng 4 with
        | 0 -> IF.Links (W.random_affine_links rng ~m:(2 + Sgr_numerics.Prng.int rng 5) ())
        | 1 -> IF.Links (W.random_mm1_links rng ~m:(2 + Sgr_numerics.Prng.int rng 5) ())
        | 2 -> IF.Network (W.grid_network rng ~rows:2 ~cols:3 ())
        | _ ->
            IF.Network
              (W.random_layered_network rng ~layers:(1 + Sgr_numerics.Prng.int rng 2)
                 ~width:(1 + Sgr_numerics.Prng.int rng 2) ())
      in
      let printed = IF.to_string inst in
      match IF.parse printed with
      | Error _ -> false
      | Ok inst' -> String.equal printed (IF.to_string inst'))

(* ---------------- bounds: node count, endpoints, nesting ---------------- *)

let expect_exact text expected =
  match IF.parse text with
  | Error m -> Alcotest.(check string) (Printf.sprintf "error of %S" text) expected m
  | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" text

let test_node_count_cap () =
  let net nodes = Printf.sprintf "network\nnodes %s\nedge 0 1 x\ncommodity 0 1 1\n" nodes in
  expect_exact (net "100000000000") "line 2: nodes 100000000000 exceeds the limit of 1048576";
  expect_exact (net "4611686018427387903")
    "line 2: nodes 4611686018427387903 exceeds the limit of 1048576";
  expect_exact (net (string_of_int (Sgr_graph.Digraph.max_nodes + 1)))
    "line 2: nodes 1048577 exceeds the limit of 1048576";
  expect_exact (net "0") "line 2: nodes expects a positive integer, got \"0\"";
  (match Sgr_graph.Digraph.builder ~num_nodes:(Sgr_graph.Digraph.max_nodes + 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "the builder must refuse more than max_nodes nodes");
  match IF.parse (net "25001") with
  | Ok (IF.Network n) ->
      Alcotest.(check int) "T13's node count" 25_001 (Sgr_graph.Digraph.num_nodes n.Net.graph)
  | _ -> Alcotest.fail "25,001 nodes must parse"

let test_bad_edges_name_their_line () =
  expect_exact "network\nnodes 2\nedge 0 1 x\nedge 0 5 x\ncommodity 0 1 1\n"
    "line 4: edge endpoint out of range [0, 2)";
  expect_exact "network\nnodes 2\nedge -1 1 x\ncommodity 0 1 1\n"
    "line 3: edge endpoint out of range [0, 2)";
  expect_exact "network\nnodes 2\n# a loop\nedge 1 1 x\nedge 0 1 x\ncommodity 0 1 1\n"
    "line 4: self loops are not allowed";
  (* The endpoints are checked against the last [nodes] line, wherever
     it sits. *)
  (match IF.parse "network\nedge 0 2 x\nnodes 3\nedge 2 1 x\ncommodity 0 1 1\n" with
  | Ok (IF.Network n) ->
      Alcotest.(check int) "nodes after edges" 3 (Sgr_graph.Digraph.num_nodes n.Net.graph)
  | _ -> Alcotest.fail "a nodes line after the edges must parse");
  expect_exact "network\nedge 0 2 x\nnodes 2\ncommodity 0 1 1\n"
    "line 2: edge endpoint out of range [0, 2)"

let test_bad_commodities_name_their_line () =
  expect_exact "network\nnodes 3\nedge 0 1 x\nedge 1 2 x\ncommodity 0 5 1\n"
    "line 5: commodity endpoint out of range [0, 3)";
  expect_exact "network\nnodes 3\nedge 0 1 x\ncommodity -1 2 1\nedge 1 2 x\n"
    "line 4: commodity endpoint out of range [0, 3)";
  expect_exact "network\nnodes 3\nedge 0 1 x\nedge 1 2 x\ncommodity 0 2 1\ncommodity 1 1 1\n"
    "line 6: commodity source equals destination";
  (* Checked against the last [nodes] line, wherever it sits. *)
  expect_exact "network\ncommodity 0 2 1\nnodes 2\nedge 0 1 x\n"
    "line 2: commodity endpoint out of range [0, 2)"

let test_tntp_bounds_name_their_line () =
  let tntp ~nodes ~row = Printf.sprintf "<NUMBER OF NODES> %s\n~ comment\n%s\n" nodes row in
  let trips = "Origin 1\n2 : 1.0;\n" in
  let check name net expected =
    match Sgr_workloads.Tntp.parse ~net ~trips with
    | Error m -> Alcotest.(check string) name expected m
    | Ok _ -> Alcotest.failf "%s: parsed" name
  in
  check "huge" (tntp ~nodes:"100000000000" ~row:"1 2 1 1 1 0.15 4 0 0 1 ;")
    "line 1: node count 100000000000 outside [1, 1048576]";
  check "zero" (tntp ~nodes:"0" ~row:"1 2 1 1 1 0.15 4 0 0 1 ;")
    "line 1: node count 0 outside [1, 1048576]";
  check "self loop" (tntp ~nodes:"2" ~row:"2 2 1 1 1 0.15 4 0 0 1 ;")
    "line 3: self loops are not allowed"

let deep_shift depth = String.concat "" (List.init depth (fun _ -> "shifted 1 ")) ^ "x"

let test_deep_shift_is_linear () =
  let spec = deep_shift 20_000 in
  let lat, bytes = allocated_bytes (fun () -> LS.parse spec) in
  (match lat with
  | Ok l -> (
      match L.kind l with
      | L.Shifted { offset; base = L.Affine { slope; intercept } } ->
          approx "offsets sum" 20_000.0 offset;
          approx "slope" 1.0 slope;
          approx "intercept" 0.0 intercept
      | _ -> Alcotest.fail "expected one Shifted over the affine x")
  | Error m -> Alcotest.failf "the deep spec failed: %s" m);
  let limit = 100.0 *. float_of_int (String.length spec) in
  if bytes >= limit then Alcotest.failf "%.0f bytes for a %d-byte spec" bytes (String.length spec);
  (* Through the reader, and with an error at the bottom: one
     "shifted: " per level, still in linear space. *)
  let text = "links\ndemand 1\nlink " ^ deep_shift 20_000 ^ "\n" in
  (match allocated_bytes (fun () -> IF.parse text) with
  | Ok (IF.Links _), bytes ->
      check_true "reader within 100x" (bytes < 100.0 *. float_of_int (String.length text))
  | _ -> Alcotest.fail "the deep link must parse");
  match allocated_bytes (fun () -> LS.parse (deep_shift 2_000 ^ " + frogs")) with
  | Error m, bytes ->
      check_true "one prefix per level"
        (String.starts_with ~prefix:(String.concat "" (List.init 2_000 (fun _ -> "shifted: "))) m
         && String.ends_with ~suffix:"cannot parse \"x + frogs\" as an affine expression" m);
      check_true "error within 100x" (bytes < 100.0 *. float_of_int (String.length m))
  | Ok _, _ -> Alcotest.fail "frogs must not parse"

(* ---------------- the reader under mutation ---------------- *)

(* The largest node count a [nodes] line declares, within the cap: the
   reader sizes arrays by it, so it counts toward the input's size. *)
let declared_nodes text =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' (String.trim line) with
      | kw :: rest when String.lowercase_ascii kw = "nodes" -> (
          match int_of_string_opt (String.trim (String.concat " " rest)) with
          | Some n when n > 0 && n <= Sgr_graph.Digraph.max_nodes -> max acc n
          | _ -> acc)
      | _ -> acc)
    0 (String.split_on_char '\n' text)

(* Hex literals cut at every position of [0x1.8p+0], each as the last
   bytes of a text with no final newline, so a scan can run into the
   end of the text inside one. *)
let cut_literals = [ "0x"; "0x1"; "0x1."; "0x1.8p"; "0x1.8p+" ]

(* Catalog instances, a small city, the spec kinds, and two seeds that
   broke the reader before it had bounds: a node count past the cap and
   a 1,000-deep shift chain. Then the edges of the in-place scanners:
   texts that end inside a literal, [\r\n] and tab-separated lines,
   hex literals cut short, with 14 digits (one past the canonical 13)
   and with exponents at and past both ends of the normal range. *)
let fuzz_corpus =
  lazy
    (List.map
       (fun cut ->
         Printf.sprintf "links\ndemand 0x1p+0\nlink affine %s %s\nlink shifted %s const %s" cut
           cut cut cut)
       cut_literals
    @ [
      IF.print_links W.pigou;
      IF.to_string (IF.Links W.fig456);
      IF.print_network (W.fig7 ());
      IF.to_string (IF.Network (W.braess_classic ()));
      IF.print_network (W.two_commodity ());
      IF.to_string
        (IF.Network
           (W.synthetic_city (Sgr_numerics.Prng.create 3) ~rings:2 ~radials:4 ~commodities:3 ()));
      "links\ndemand 1\nlink shifted 0.5 mm1 4\nlink bpr 1 2 0.15 4\nlink poly 1 0 3\n\
       link 2.5x + 0.5\n";
      "network\nnodes 100000000000\nedge 0 1 x\ncommodity 0 1 1\n";
      "links\ndemand 1\nlink " ^ deep_shift 1_000 ^ "\n";
      "network\nnodes 3\nedge 0 1 affine 0x1.8p+0 0x1p-1";
      "network\r\nnodes 3\r\nedge\t0\t1\tx\r\nedge 1 2 const\t0x1p+1\r\n\tedge 0 2 bpr 1 2\r\n\
       commodity\t0 2\t1\r\n";
      "links\ndemand 1\nlink const 0x1.00000000000008p+0\nlink affine 0x1.fffffffffffff8p+0 0\n";
      "links\ndemand 1\nlink const 0x1p+1023\nlink const 0x1p-1023\nlink const 0x1p+1024\n";
      "links\ndemand 1\nlink const 0x1p-1024\nlink affine 0x1p-1022 -0x1p+1023\n";
    ])

let specials =
  [| "100000000000"; "4611686018427387903"; "99999999999999999999"; "1e300"; "-1"; "-0"; "-1e-300";
     "nan"; "inf"; "-inf"; "0x10"; "0x1p-3"; "0X1.8P+1" |]

let is_sep c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

(* Start and end offsets of the text's tokens. *)
let tokens s =
  let acc = ref [] and i = ref 0 and n = String.length s in
  while !i < n do
    if is_sep s.[!i] then incr i
    else begin
      let j = ref !i in
      while !j < n && not (is_sep s.[!j]) do
        incr j
      done;
      acc := (!i, !j) :: !acc;
      i := !j
    end
  done;
  Array.of_list (List.rev !acc)

let splice s lo hi mid = String.sub s 0 lo ^ mid ^ String.sub s hi (String.length s - hi)

let mutate rng s =
  let module P = Sgr_numerics.Prng in
  let n = String.length s and toks = tokens s in
  let k = Array.length toks in
  match P.int rng 5 with
  | 0 when n > 0 ->
      let i = P.int rng n in
      splice s i (i + 1) (String.make 1 (Char.chr (P.int rng 256)))
  | 1 when k > 0 ->
      let lo, hi = toks.(P.int rng k) in
      splice s lo hi ""
  | 2 when k > 0 ->
      (* Repeat a span of one or two tokens: a deep shift chain, a
         repeated keyword, a long line. *)
      let t = P.int rng k in
      let lo = fst toks.(t) and hi = snd toks.(min (k - 1) (t + P.int rng 2)) in
      let reps = [| 1; 2; 10; 100; 500 |].(P.int rng 5) in
      let span = String.sub s lo (hi - lo) in
      splice s lo hi (String.concat " " (List.init (reps + 1) (fun _ -> span)))
  | 3 -> String.sub s 0 (P.int rng (n + 1))
  | _ -> (
      let number (lo, hi) = float_of_string_opt (String.sub s lo (hi - lo)) <> None in
      let numbers = List.filter number (Array.to_list toks) in
      match numbers with
      | [] -> s
      | _ ->
          let lo, hi = List.nth numbers (P.int rng (List.length numbers)) in
          splice s lo hi specials.(P.int rng (Array.length specials)))

let prop_reader_fuzz =
  Helpers.qcheck ~count:400 "instance reader: mutated inputs parse or fail, in bounded space"
    QCheck.(int_bound 1_000_000) (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 7) in
      let corpus = Lazy.force fuzz_corpus in
      let text = ref (List.nth corpus (Sgr_numerics.Prng.int rng (List.length corpus))) in
      for _ = 1 to Sgr_numerics.Prng.int rng 4 do
        text := mutate rng !text
      done;
      let text = !text in
      match allocated_bytes (fun () -> IF.parse text) with
      | exception e -> QCheck.Test.fail_reportf "%S raised %s" text (Printexc.to_string e)
      | (Ok _ | Error _), bytes ->
          let size = String.length text + declared_nodes text in
          bytes <= 65_536.0 +. (400.0 *. float_of_int size)
          || QCheck.Test.fail_reportf "%d-byte input (size %d) allocated %.0f bytes"
               (String.length text) size bytes)

(* ---------------- the reader's output, pinned ---------------- *)

(* A latency's kind with every parameter as its bits, so a reader that
   rounds a literal differently changes the digest. *)
let rec kind_bits buf k =
  let bits f = Printf.bprintf buf "%Lx," (Int64.bits_of_float f) in
  match k with
  | L.Constant c ->
      Buffer.add_char buf 'C';
      bits c
  | L.Affine { slope; intercept } ->
      Buffer.add_char buf 'A';
      bits slope;
      bits intercept
  | L.Polynomial cs ->
      Buffer.add_char buf 'P';
      Array.iter bits cs
  | L.Mm1 { capacity } ->
      Buffer.add_char buf 'M';
      bits capacity
  | L.Bpr { free_flow; capacity; alpha; beta } ->
      Buffer.add_char buf 'B';
      List.iter bits [ free_flow; capacity; alpha; beta ]
  | L.Shifted { offset; base } ->
      Buffer.add_char buf 'S';
      bits offset;
      kind_bits buf base
  | L.Custom s -> Buffer.add_string buf s

(* What the reader made of [text]: its canonical form and every
   latency's kind bits, or its error message. *)
let add_parse buf text =
  (match IF.parse text with
  | Error m -> Printf.bprintf buf "error %s" m
  | Ok inst ->
      Buffer.add_string buf (IF.to_string inst);
      let lats =
        match inst with IF.Links t -> t.Links.latencies | IF.Network n -> n.Net.latencies
      in
      Array.iter (fun l -> kind_bits buf (L.kind l)) lats);
  Buffer.add_char buf '\n'

let add_spec buf spec =
  (match LS.parse spec with
  | Error m -> Printf.bprintf buf "error %s" m
  | Ok l ->
      Buffer.add_string buf (LS.print_canonical l);
      kind_bits buf (L.kind l));
  Buffer.add_char buf '\n'

(* Random specifications over the whole grammar: every keyword in three
   cases, decimal, hex and malformed numbers, affine expressions in
   several spacings, nested [shifted] chains, blanks and junk. *)
let sample_spec rng =
  let module P = Sgr_numerics.Prng in
  let pick a = a.(P.int rng (Array.length a)) in
  let number () =
    match P.int rng 4 with
    | 0 -> Printf.sprintf "%h" (P.float rng *. 8.0)
    | 1 -> Printf.sprintf "%h" (Float.ldexp (P.float rng) (P.int rng 2_200 - 1_100))
    | 2 -> Printf.sprintf "%.6g" (P.float rng *. 10.0)
    | _ ->
        pick
          [| "1"; "0.5"; "2.5"; "0"; "-0"; "-1"; "1e-3"; "1E2"; "0x1.8p+1"; "0X1.8P+1"; "0x1p-3";
             "inf"; "nan"; "-inf"; "1e400"; "+2"; "1_0"; ".5"; "5."; "abc"; "0x"; "0x1p";
             "0x1.8p+1x"; "4.9e-324"; "0x0.0000000000001p-1022"; "0x1.fffffffffffffp+1023";
             "0x1p+1024"; "-0x1p+0"; "0x1.00000000000001p+0"; "0x10"; "1.5 " |]
  in
  let blank () = pick [| " "; " "; " "; "  "; "\t"; " \t " |] in
  let keyword k = pick [| k; String.uppercase_ascii k; String.capitalize_ascii k |] in
  let join ws = String.concat "" (List.concat_map (fun w -> [ blank (); w ]) ws) in
  let numbers k = List.init k (fun _ -> number ()) in
  let rec spec depth =
    match P.int rng 12 with
    | 0 -> join (keyword "const" :: numbers (P.int rng 3))
    | 1 -> join (keyword "mm1" :: numbers (P.int rng 3))
    | 2 -> join (keyword "bpr" :: numbers (pick [| 1; 2; 2; 4; 4; 3; 5 |]))
    | 3 -> join (keyword "poly" :: numbers (P.int rng 5))
    | 4 -> join (keyword "affine" :: numbers (pick [| 1; 2; 2; 3 |]))
    | 5 | 6 ->
        let coeff = pick [| ""; "2"; "2.5"; "0.5 "; "-"; "-2"; "1e-3"; "0" |] in
        let x = pick [| "x"; "X"; "x"; "xx" |] in
        let tail =
          pick [| ""; " + 1"; "+0.25"; " +1"; " + -1"; " - 1"; " + 1 + 1"; " + "; "+x"; " + 1e-3" |]
        in
        coeff ^ x ^ tail
    | 7 -> number ()
    | 8 | 9 when depth < 3 ->
        let off = if P.int rng 6 = 0 then "" else number () in
        join [ keyword "shifted"; off ] ^ if P.int rng 8 = 0 then "" else spec (depth + 1)
    | 10 -> pick [| ""; "   "; "frogs"; "#"; "const"; "x y"; "shifted"; "SHIFTED 1"; "2 3" |]
    | _ -> join [ keyword "shifted"; number (); keyword "shifted"; number () ] ^ spec (depth + 1)
  in
  let s = spec 0 in
  pick [| s; s; s; " " ^ s; s ^ " "; s ^ "\t" |]

(* Instances around the sampled specs. Most lines are well formed, so
   most instances parse; about one line in twelve is odd: an endpoint or
   a count in another integer form, a malformed number or spec, a stray
   keyword. Keywords come in three cases, between comments, blank lines
   and CRLF endings. *)
let sample_instance rng =
  let module P = Sgr_numerics.Prng in
  let pick a = a.(P.int rng (Array.length a)) in
  let odd () = P.int rng 12 = 0 in
  let rec valid_spec tries =
    let s = sample_spec rng in
    if tries = 0 || Result.is_ok (LS.parse s) then s else valid_spec (tries - 1)
  in
  let spec () = if odd () then sample_spec rng else valid_spec 8 in
  let node v =
    if odd () then pick [| "-1"; "0x1"; "+1"; "1_0"; "a"; "01"; "4"; "0o2"; "0b1"; "" |]
    else string_of_int v
  in
  let number () =
    if odd () then pick [| "-1"; "inf"; "nan"; "1e400"; "2 3"; "x"; "0x1p" |]
    else pick [| "1"; "0.5"; "0x1p-1"; "2.5e-1"; "0"; Printf.sprintf "%h" (P.float rng) |]
  in
  let keyword k =
    if odd () then pick [| String.uppercase_ascii k; String.capitalize_ascii k; k ^ "s" |] else k
  in
  let eol () = pick [| "\n"; "\n"; "\n"; "\n"; "\r\n"; "\n\n"; "\n# note\n"; " \n"; "\t\n" |] in
  let edge () =
    let src = P.int rng 4 in
    let dst = (src + 1 + P.int rng 3) mod 4 in
    if odd () then
      pick [| "edge 0 1"; "edge 0"; "edge\t0 1 x"; "edge  0 1 x"; "edge 0 1  x"; "edge 2 2 x" |]
    else Printf.sprintf "%s %s %s %s" (keyword "edge") (node src) (node dst) (spec ())
  in
  let commodity () =
    Printf.sprintf "%s %s %s %s" (keyword "commodity") (node 0) (node (1 + P.int rng 3)) (number ())
  in
  let lines =
    if P.int rng 4 = 0 then
      Printf.sprintf "%s %s" (keyword "demand") (number ())
      :: List.init (1 + P.int rng 4) (fun _ -> Printf.sprintf "%s %s" (keyword "link") (spec ()))
    else
      let chain = if P.int rng 3 = 0 then [] else [ "edge 0 1 x"; "edge 1 2 x"; "edge 2 3 x" ] in
      let body = List.init (1 + P.int rng 5) (fun _ -> edge ()) @ [ commodity () ] in
      let count = if odd () then pick [| "04"; "0x4"; "+4"; "4 5"; "0"; "x" |] else "4" in
      let nodes = Printf.sprintf "%s %s" (keyword "nodes") count in
      if P.bool rng then nodes :: chain @ body else chain @ body @ [ nodes ]
  in
  let is_links =
    match lines with
    | l :: _ -> String.starts_with ~prefix:"demand" (String.lowercase_ascii l)
    | [] -> false
  in
  let header =
    if odd () then pick [| "NETWORK"; "Links"; "frogs" |]
    else if is_links then "links"
    else "network"
  in
  String.concat "" (List.map (fun l -> l ^ eol ()) (header :: lines))

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded with the list-based reader this replaced: the same parsed
   instances, latency bits and error messages, byte for byte. *)
let test_reader_golden () =
  let catalog = Buffer.create 4096 in
  let links =
    [ W.pigou; W.fig456; W.pigou_degree 3; W.mm1_links ~capacities:[| 1.5; 2.0; 4.0 |] ~demand:1.0 ]
  in
  let nets = [ W.fig7 (); W.braess_classic (); W.two_commodity (); W.braess_unbounded () ] in
  List.iter
    (fun t ->
      add_parse catalog (IF.print_links t);
      add_parse catalog (IF.to_string (IF.Links t)))
    links;
  List.iter
    (fun n ->
      add_parse catalog (IF.print_network n);
      add_parse catalog (IF.to_string (IF.Network n)))
    nets;
  let city = Buffer.create (1 lsl 20) in
  let net =
    W.synthetic_city (Sgr_numerics.Prng.create 13_025) ~rings:25 ~radials:100 ~commodities:32 ()
  in
  add_parse city (IF.to_string (IF.Network net));
  add_parse city (IF.print_network net);
  let specs = Buffer.create (1 lsl 16) in
  let rng = Sgr_numerics.Prng.create 2_028 in
  for _ = 1 to 3_000 do
    let spec = sample_spec rng in
    add_spec specs spec;
    add_parse specs ("links\ndemand 1\nlink " ^ spec ^ "\n");
    add_parse specs ("network\nnodes 3\nedge 0 1 " ^ spec ^ "\nedge 1 2 x\ncommodity 0 2 1\n")
  done;
  let instances = Buffer.create (1 lsl 16) in
  for _ = 1 to 1_500 do
    add_parse instances (sample_instance rng)
  done;
  Alcotest.(check (list string)) "catalog, city, specs, instances"
    [
      "61dd30122c69a999a6293faffe7eb5f3";
      "0092607e2f24fe256b0af5f89afa900b";
      "7b1b9ea6dc605ebfc33203ef93b23e4c";
      "46102c28f9378e93bb02d34f52a8df8f";
    ]
    [ digest catalog; digest city; digest specs; digest instances ]

(* Parsing the benchmark city's canonical text allocates 3,134,432
   bytes: what the instance keeps, a latency being its kind and a
   40-byte record, and the reader's scratch. Three closures per latency
   would make it 4,277,840. *)
let test_city_parse_allocation () =
  let net =
    W.synthetic_city (Sgr_numerics.Prng.create 13_025) ~rings:25 ~radials:100 ~commodities:32 ()
  in
  let text = IF.to_string (IF.Network net) in
  let parse () =
    match IF.parse text with
    | Ok (IF.Network _) -> ()
    | Ok (IF.Links _) | Error _ -> Alcotest.fail "the city must parse as a network"
  in
  parse ();
  let (), bytes = allocated_bytes parse in
  if bytes >= 3_600_000.0 then Alcotest.failf "parsing the city allocated %.0f bytes" bytes

(* The in-place [%h] reader against [float_of_string] on random normal
   floats: both signs, every exponent with its two ends drawn often, and
   0 to 13 fraction digits (the last one nonzero, so [%h] prints them
   all). Each literal is read from the middle of a longer text, so the
   reader must keep to its slice. With one fraction digit replaced by a
   character that is no lowercase hex digit, the reader refuses the
   literal and writes nothing. *)
let prop_canonical_hex_bits =
  qcheck ~count:500 "canonical %h reader equals float_of_string bit for bit" QCheck.small_nat
    (fun seed ->
      let module P = Sgr_numerics.Prng in
      let rng = P.create (seed + 7_300) in
      List.for_all
        (fun _ ->
          let digits = P.int rng 14 in
          let frac =
            if digits = 0 then 0
            else
              let top = P.int rng (1 lsl ((4 * digits) - 4)) in
              ((top lsl 4) lor (1 + P.int rng 15)) lsl (52 - (4 * digits))
          in
          let e =
            match P.int rng 4 with 0 -> -1_022 | 1 -> 1_023 | _ -> P.int rng 2_046 - 1_022
          in
          let v =
            Int64.float_of_bits
              (Int64.logor (Int64.shift_left (Int64.of_int (e + 1_023)) 52) (Int64.of_int frac))
          in
          let v = if P.bool rng then -.v else v in
          let lit = Printf.sprintf "%h" v in
          let text = "x " ^ lit ^ " y" in
          let xs = [| Float.nan |] in
          let read = LS.canonical_hex text 2 (2 + String.length lit) xs 0 in
          let refuses_a_bad_digit () =
            digits = 0
            ||
            let dot = String.index lit '.' in
            let bad = Bytes.of_string lit in
            Bytes.set bad (dot + 1 + P.int rng digits) "ABCDEFgx.+ /:`G".[P.int rng 15];
            let ys = [| Float.nan |] in
            (not (LS.canonical_hex (Bytes.to_string bad) 0 (Bytes.length bad) ys 0))
            && Float.is_nan ys.(0)
          in
          read
          && Int64.equal (Int64.bits_of_float xs.(0)) (Int64.bits_of_float (float_of_string lit))
          && Int64.equal (Int64.bits_of_float xs.(0)) (Int64.bits_of_float v)
          && refuses_a_bad_digit ())
        (List.init 20 Fun.id))

(* The three slice entries check their slice once, by name, and then
   read it unchecked: a slice outside the string is refused before a
   byte is read, and the slices at its ends are still read. *)
let test_slices_outside_refused () =
  let s = "const 0x1p+0" in
  let n = String.length s in
  List.iter
    (fun (lo, hi) ->
      let refused name f =
        match f () with
        | exception Invalid_argument m ->
            Alcotest.(check string) name
              (Printf.sprintf
                 "Latency_spec.%s: the slice [%d, %d) is not within a string of length %d" name lo
                 hi n)
              m
        | () -> Alcotest.failf "%s read [%d, %d) of a %d-byte string" name lo hi n
      in
      refused "parse_sub" (fun () -> ignore (LS.parse_sub s lo hi));
      refused "number_sub" (fun () -> ignore (LS.number_sub s lo hi));
      refused "canonical_hex" (fun () -> ignore (LS.canonical_hex s lo hi [| 0.0 |] 0)))
    [ (-1, 3); (0, n + 1); (7, 6); (n + 1, n + 1); (min_int, 0); (0, max_int) ];
  check_true "the whole string" (Result.is_ok (LS.parse_sub s 0 n));
  Alcotest.(check (option (float 0.0))) "the last word" (Some 1.0) (LS.number_sub s 6 n);
  check_true "the empty slice at the end" (not (LS.canonical_hex s n n [| 0.0 |] 0))

let suite =
  [
    case "latency specs: affine forms" test_affine_specs;
    case "latency specs: keyword forms" test_keyword_specs;
    case "latency specs: malformed" test_bad_specs;
    case "latency specs: print/parse roundtrip" test_spec_roundtrip;
    case "latency specs: shifted keyword canonicalizes" test_shifted_spec_canonicalizes;
    case "latency specs: custom not serializable" test_spec_print_rejects_custom;
    case "instance files: links" test_links_file;
    case "instance files: network" test_network_file;
    case "instance files: error cases" test_file_errors;
    case "instance files: errors carry line numbers" test_error_line_numbers;
    case "instance files: infinite links demand rejected" test_rejects_infinite_demand;
    case "instance files: infinite commodity demand rejected"
      test_rejects_infinite_commodity_demand;
    case "instance files: infinite latency slope rejected" test_rejects_infinite_slope;
    case "instance files: infinite latency intercept rejected" test_rejects_infinite_intercept;
    case "instance files: links roundtrip" test_links_roundtrip;
    case "instance files: network roundtrip" test_network_roundtrip;
    case "instance files: multicommodity roundtrip" test_two_commodity_roundtrip;
    case "instance files: missing file" test_load_missing_file;
    prop_random_links_roundtrip;
    prop_random_networks_roundtrip;
    prop_canonical_spec_roundtrip;
    prop_canonical_instance_roundtrip;
    case "instance files: node count is capped" test_node_count_cap;
    case "instance files: bad edges name their line" test_bad_edges_name_their_line;
    case "instance files: bad commodities name their line" test_bad_commodities_name_their_line;
    case "tntp: node cap and self loops name their line" test_tntp_bounds_name_their_line;
    case "latency specs: a 20,000-deep shift parses in linear space" test_deep_shift_is_linear;
    prop_reader_fuzz;
    case "instance reader: output and messages match the recorded MD5s" test_reader_golden;
    case "instance reader: the benchmark city parses under 3.6 MB" test_city_parse_allocation;
    prop_canonical_hex_bits;
    case "latency specs: a slice outside its string is refused by name"
      test_slices_outside_refused;
  ]
