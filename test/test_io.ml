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
  ]
