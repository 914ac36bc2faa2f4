(* Shared Alcotest/QCheck helpers for the suites. *)

let approx ?(eps = 1e-6) msg expected actual =
  if not (Sgr_numerics.Tolerance.approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g (eps %.1g)" msg expected actual eps

let approx_le ?(eps = 1e-6) msg a b =
  if not (Sgr_numerics.Tolerance.approx_le ~eps a b) then
    Alcotest.failf "%s: expected %.12g <= %.12g (eps %.1g)" msg a b eps

let approx_array ?(eps = 1e-6) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length mismatch %d vs %d" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e ->
      if not (Sgr_numerics.Tolerance.approx ~eps e actual.(i)) then
        Alcotest.failf "%s: index %d: expected %.12g, got %.12g" msg i e actual.(i))
    expected

let check_true msg b = Alcotest.(check bool) msg true b
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* [(f (), bytes)] with [bytes] what [f ()] allocated. On OCaml 5.1
   [Gc.allocated_bytes] counts the words, not the bytes, allocated since
   the last minor collection, so a window that ends with a partly filled
   minor heap undercounts (1,000 cons cells read 3,012 instead of
   24,000). Emptying the minor heap before both readings makes the
   window whole collections, which count bytes. *)
let allocated_bytes f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. a0)
