(* Tests for the domain pool: map semantics, exception propagation,
   nested-call fallback, and the determinism guarantee — every solver
   built on the pool must return byte-identical results at any job
   count. *)

open Helpers
module Pool = Sgr_par.Pool
module W = Sgr_workloads.Workloads
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective

(* Run [f] with the ambient job count set to [jobs], restoring the
   previous value (tests must not leak parallelism into each other). *)
let with_jobs jobs f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

let test_map_array_matches_sequential () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "jobs" 4 (Pool.jobs pool);
  let input = Array.init 1000 (fun i -> i) in
  let f i = (i * i) + 1 in
  Alcotest.(check (array int)) "results by index" (Array.map f input)
    (Pool.map_array pool f input);
  Alcotest.(check (array int)) "empty input" [||] (Pool.map_array pool f [||]);
  Alcotest.(check (array int)) "singleton input" [| 50 |] (Pool.map_array pool f [| 7 |]);
  (* A second batch on the same pool (workers must rearm cleanly). *)
  Alcotest.(check (array int)) "second batch" (Array.map f input) (Pool.map_array pool f input)

exception Boom of int

let test_map_array_propagates_exception () =
  let pool = Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match Pool.map_array pool (fun i -> if i = 13 then raise (Boom i) else i) (Array.init 64 Fun.id) with
  | exception Boom 13 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "exception must propagate to the caller");
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int)) "pool alive after failure" [| 0; 1; 2 |]
    (Pool.map_array pool Fun.id [| 0; 1; 2 |])

let test_nested_map_falls_back () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* Each task body calls back into the shared [map]; the inner call
     must run sequentially on the task's domain, not deadlock. *)
  let outer =
    Pool.map_array pool
      (fun i ->
        let inner = Pool.map ~jobs:4 (fun j -> (10 * i) + j) (Array.init 8 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 16 Fun.id)
  in
  let expected =
    Array.init 16 (fun i ->
        Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested maps" expected outer

let test_jobs_clamped () =
  with_jobs 1 @@ fun () ->
  Pool.set_default_jobs 0;
  Alcotest.(check int) "clamped below" 1 (Pool.default_jobs ());
  Pool.set_default_jobs 100_000;
  Alcotest.(check int) "clamped above" 512 (Pool.default_jobs ());
  match Pool.create ~jobs:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Pool.create ~jobs:0 must be rejected"

let test_create_rejects () =
  match Pool.create ~jobs:(-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative jobs must be rejected"

(* ---------------- determinism across job counts ---------------- *)

let curve_identical (a : Stackelberg.Alpha_sweep.curve) (b : Stackelberg.Alpha_sweep.curve) =
  a.beta = b.beta
  && List.length a.points = List.length b.points
  && List.for_all2
       (fun (p : Stackelberg.Alpha_sweep.point) (q : Stackelberg.Alpha_sweep.point) ->
         p.alpha = q.alpha && p.ratio = q.ratio && p.method_used = q.method_used)
       a.points b.points

(* The sequential sweep and its pooled runs at 2 and 4 domains. *)
let sweep_jobs_identical sweep =
  let seq = sweep 1 in
  List.for_all (fun jobs -> curve_identical seq (sweep jobs)) [ 2; 4 ]

let test_alpha_sweep_jobs_identical () =
  check_true "fig456 sweep identical at jobs=1, 2 and 4"
    (sweep_jobs_identical (fun jobs -> Stackelberg.Alpha_sweep.run ~jobs ~samples:9 W.fig456));
  check_true "pigou sweep identical at jobs=1, 2 and 4"
    (sweep_jobs_identical (fun jobs -> Stackelberg.Alpha_sweep.run ~jobs ~samples:7 W.pigou))

let prop_alpha_sweep_jobs_identical =
  qcheck ~count:10 "random sweeps identical at jobs=1, 2 and 4" QCheck.small_nat (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 900) in
      let t = W.random_affine_links rng ~m:4 () in
      sweep_jobs_identical (fun jobs ->
          Stackelberg.Alpha_sweep.run ~jobs ~samples:7 ~grid_resolution:8 t))

let solve_with_jobs jobs net = with_jobs jobs @@ fun () -> Eq.solve Obj.Wardrop net

let test_column_gen_jobs_identical () =
  let net = W.two_commodity () in
  let seq = solve_with_jobs 1 net in
  let par = solve_with_jobs 4 net in
  (* Bitwise equality: parallel pricing must not change a single ulp. *)
  check_true "edge flows bit-identical" (seq.edge_flow = par.edge_flow);
  Alcotest.(check int) "same sweeps" seq.sweeps par.sweeps;
  check_true "same gap" (seq.gap = par.gap);
  check_true "same path sets" (seq.paths = par.paths);
  check_true "same path flows" (seq.path_flows = par.path_flows)

let prop_column_gen_jobs_identical =
  qcheck ~count:10 "random multicommodity solves identical at jobs=1 and jobs=4"
    QCheck.small_nat (fun seed ->
      let rng = Sgr_numerics.Prng.create (seed + 950) in
      let net = W.random_multicommodity rng ~rows:3 ~cols:3 ~commodities:3 () in
      let seq = solve_with_jobs 1 net in
      let par = solve_with_jobs 4 net in
      seq.edge_flow = par.edge_flow && seq.paths = par.paths && seq.gap = par.gap)

let test_mop_jobs_identical () =
  let net = W.fig7 () in
  let seq = with_jobs 1 (fun () -> Stackelberg.Mop.run net) in
  let par = with_jobs 4 (fun () -> Stackelberg.Mop.run net) in
  check_true "beta identical" (seq.beta = par.beta);
  check_true "leader flow bit-identical" (seq.leader_edge_flow = par.leader_edge_flow);
  check_true "induced cost identical" (seq.induced.cost = par.induced.cost)

let suite =
  [
    case "pool: map_array matches Array.map" test_map_array_matches_sequential;
    case "pool: exceptions propagate, pool survives" test_map_array_propagates_exception;
    case "pool: nested maps fall back to sequential" test_nested_map_falls_back;
    case "pool: ambient jobs clamped to [1, 512]" test_jobs_clamped;
    case "pool: create rejects jobs < 1" test_create_rejects;
    case "alpha-sweep: identical at jobs=1, 2 and 4" test_alpha_sweep_jobs_identical;
    prop_alpha_sweep_jobs_identical;
    case "column-gen: identical at jobs=1 and jobs=4" test_column_gen_jobs_identical;
    prop_column_gen_jobs_identical;
    case "mop: identical at jobs=1 and jobs=4" test_mop_jobs_identical;
  ]
