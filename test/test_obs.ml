(* Sgr_obs: counters, spans, sinks and solver-convergence traces. *)

module Obs = Sgr_obs.Obs
module Export = Sgr_obs.Export
module Solver = Sgr_assign.Solver
module Obj = Sgr_network.Objective
module W = Sgr_workloads.Workloads

let with_recorder f =
  let r = Obs.Recorder.create () in
  Obs.Recorder.install r;
  Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () -> ignore (f ()));
  Obs.Recorder.events r

let test_counters () =
  let c = Obs.counter "test.counter" in
  let base = Obs.value c in
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "accumulates" (base + 5) (Obs.value c);
  let c' = Obs.counter "test.counter" in
  Obs.incr c';
  Alcotest.(check int) "same name, same counter" (base + 6) (Obs.value c);
  Alcotest.(check bool) "snapshot lists it" true
    (List.mem_assoc "test.counter" (Obs.counters ()));
  Obs.reset_counters ();
  Alcotest.(check int) "reset_all zeroes" 0 (Obs.value c);
  Alcotest.(check bool) "still registered after reset" true
    (List.mem_assoc "test.counter" (Obs.counters ()))

let test_spans_nest () =
  (* Deterministic clock: each read advances by one second. *)
  let ticks = ref 0.0 in
  Obs.set_clock (fun () ->
      ticks := !ticks +. 1.0;
      !ticks);
  let events =
    Fun.protect
      ~finally:(fun () -> Obs.set_clock Obs.default_clock)
      (fun () ->
        with_recorder (fun () ->
            Obs.span "test.parent" (fun () ->
                ignore (Obs.span "test.child" (fun () -> 1));
                ignore (Obs.span "test.child" (fun () -> 2));
                42)))
  in
  (* begin/end for parent + 2 children *)
  Alcotest.(check int) "six events" 6 (List.length events);
  let depth_of name =
    List.filter_map
      (function
        | Obs.Span_end { name = n; depth; _ } when n = name -> Some depth | _ -> None)
      events
  in
  Alcotest.(check (list int)) "parent at depth 0" [ 0 ] (depth_of "test.parent");
  Alcotest.(check (list int)) "children at depth 1" [ 1; 1 ] (depth_of "test.child");
  let totals = Export.span_totals events in
  let count, child_total = List.assoc "test.child" totals in
  Alcotest.(check int) "two child spans" 2 count;
  let _, parent_total = List.assoc "test.parent" totals in
  (* With the ticking clock: each child interval is 1s, the parent
     brackets both plus its own clock reads, so children sum below it. *)
  Alcotest.(check (float 1e-9)) "children sum to 2s" 2.0 child_total;
  Alcotest.(check bool) "children sum within parent" true (child_total <= parent_total)

let test_span_exception () =
  let events =
    with_recorder (fun () ->
        (try Obs.span "test.raises" (fun () -> failwith "boom") with Failure _ -> ());
        ())
  in
  Alcotest.(check int) "begin and end despite raise" 2 (List.length events);
  (* Nesting depth is restored, so a follow-up span sits at depth 0. *)
  let events' = with_recorder (fun () -> Obs.span "test.after" Fun.id) in
  match events' with
  | [ Obs.Span_begin { depth = 0; _ }; Obs.Span_end { depth = 0; _ } ] -> ()
  | _ -> Alcotest.fail "depth not restored after exception"

let test_noop_sink () =
  Obs.set_sink None;
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Alcotest.(check int) "span is transparent" 7 (Obs.span "test.noop" (fun () -> 7));
  Obs.point ~solver:"noop" ~k:1 ~gap:0.0 ~objective:0.0 ~step:0.0;
  (* A solve without a sink carries no trace... *)
  let net = W.braess_classic () in
  let sol = Solver.solve ~tol:1e-8 ~max_iter:100_000 Obj.Wardrop net in
  Alcotest.(check int) "no trace without sink" 0 (List.length sol.trace);
  (* ...and a recorder installed afterwards has seen none of the above. *)
  let events = with_recorder (fun () -> ()) in
  Alcotest.(check int) "no events leaked into later sink" 0 (List.length events)

let test_fw_convergence_trace () =
  let net = W.braess_classic () in
  Obs.reset_counters ();
  let sol = ref None in
  let events =
    with_recorder (fun () ->
        sol := Some (Solver.solve ~tol:1e-3 ~max_iter:100_000 Obj.System_optimum net))
  in
  let sol = Option.get !sol in
  let trace = Array.of_list sol.Solver.trace in
  Alcotest.(check int) "one point per iteration" sol.Solver.iterations (Array.length trace);
  Alcotest.(check bool) "terminated by the gap" true (sol.Solver.relative_gap <= 1e-3);
  (* The exact line search makes the objective monotone non-increasing;
     the duality gap may rise once while leaving the all-or-nothing
     start vertex, then decreases monotonically. *)
  for i = 0 to Array.length trace - 2 do
    Alcotest.(check bool) "objective non-increasing" true
      (trace.(i + 1).Solver.objective <= trace.(i).Solver.objective +. 1e-12)
  done;
  for i = 1 to Array.length trace - 2 do
    Alcotest.(check bool) "gap monotone decreasing past the transient" true
      (trace.(i + 1).Solver.gap <= trace.(i).Solver.gap +. 1e-12)
  done;
  Alcotest.(check bool) "gap shrank overall" true
    (trace.(Array.length trace - 1).Solver.gap < trace.(0).Solver.gap);
  (* The sink saw the same points, bracketed by the solve span. *)
  let points =
    List.filter
      (function Obs.Point { solver = "assign.frank-wolfe"; _ } -> true | _ -> false)
      events
  in
  Alcotest.(check int) "sink saw every point" sol.Solver.iterations (List.length points);
  Alcotest.(check bool) "solve span recorded" true
    (List.mem_assoc "assign.solve" (Export.span_totals events));
  (* The hot-path counters ticked underneath. *)
  let counter name = List.assoc name (Obs.counters ()) in
  Alcotest.(check bool) "dijkstra ran" true (counter "dijkstra.runs" > 0);
  Alcotest.(check bool) "bisection ran (line search)" true (counter "bisection.calls" > 0);
  Alcotest.(check int) "one all-or-nothing per iteration plus the start"
    (sol.Solver.iterations + 1) (counter "assign.aon_calls")

let test_mop_spans_and_counters () =
  Obs.reset_counters ();
  let events = with_recorder (fun () -> Stackelberg.Mop.run (W.fig7 ())) in
  let totals = Export.span_totals events in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true (List.mem_assoc name totals))
    [ "mop.solve"; "mop.optimum"; "mop.commodity"; "mop.maxflow"; "mop.nash";
      "induced.equilibrium"; "equilibrate.solve" ];
  let _, mop_total = List.assoc "mop.solve" totals in
  let sub_total =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name totals with Some (_, t) -> acc +. t | None -> acc)
      0.0
      [ "mop.optimum"; "mop.commodity"; "mop.nash"; "induced.equilibrium" ]
  in
  Alcotest.(check bool) "children sum within mop.solve" true (sub_total <= mop_total);
  let counter name = List.assoc name (Obs.counters ()) in
  Alcotest.(check bool) "maxflow ran" true (counter "maxflow.runs" > 0);
  Alcotest.(check bool) "latency evaluated" true (counter "latency.evaluations" > 0)

let test_exports_well_formed () =
  let events =
    with_recorder (fun () ->
        Obs.span "test.export" (fun () ->
            Obs.point ~solver:"t" ~k:1 ~gap:Float.infinity ~objective:1.0 ~step:0.5))
  in
  let render f =
    let path = Filename.temp_file "sgr_obs" ".json" in
    Out_channel.with_open_text path (fun oc -> f oc);
    let s = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    s
  in
  let chrome = render (fun oc -> Export.chrome_trace oc ~counters:[ ("c.x", 3) ] events) in
  Alcotest.(check bool) "chrome trace has header" true
    (String.length chrome > 0 && String.sub chrome 0 15 = "{\"traceEvents\":");
  (* Non-finite floats must not leak into JSON. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no inf in chrome json" false (contains chrome "inf");
  let jsonl = render (fun oc -> Export.jsonl oc events) in
  Alcotest.(check int) "one line per event"
    (List.length events)
    (List.length (String.split_on_char '\n' (String.trim jsonl)))

let test_exports_sorted () =
  (* Regression: counter and span ordering in the exports must never
     depend on the caller's list order or on event emission order. *)
  let ticks = ref 0.0 in
  Obs.set_clock (fun () ->
      ticks := !ticks +. 1.0;
      !ticks);
  let events =
    Fun.protect
      ~finally:(fun () -> Obs.set_clock Obs.default_clock)
      (fun () ->
        with_recorder (fun () ->
            ignore (Obs.span "z.last" Fun.id);
            ignore (Obs.span "a.first" Fun.id);
            ignore (Obs.span "m.mid" Fun.id)))
  in
  Alcotest.(check (list string)) "span_totals sorted by name"
    [ "a.first"; "m.mid"; "z.last" ]
    (List.map fst (Export.span_totals events));
  let unsorted = [ ("z.counter", 2); ("a.counter", 1); ("m.counter", 3) ] in
  let out = Format.asprintf "%a" (fun fmt -> Export.stats fmt ~counters:unsorted) events in
  let pos name =
    let n = String.length out and m = String.length name in
    let rec go i = if i + m > n then -1 else if String.sub out i m = name then i else go (i + 1) in
    go 0
  in
  Helpers.check_true "all counters rendered"
    (List.for_all (fun (n, _) -> pos n >= 0) unsorted);
  Helpers.check_true "counters rendered in name order"
    (pos "a.counter" < pos "m.counter" && pos "m.counter" < pos "z.counter");
  Helpers.check_true "spans rendered in name order"
    (pos "a.first" < pos "m.mid" && pos "m.mid" < pos "z.last")

let suite =
  [
    Alcotest.test_case "counters accumulate and reset" `Quick test_counters;
    Alcotest.test_case "spans nest and sum to their parent" `Quick test_spans_nest;
    Alcotest.test_case "spans close on exception" `Quick test_span_exception;
    Alcotest.test_case "no-op sink adds no events" `Quick test_noop_sink;
    Alcotest.test_case "frank-wolfe convergence trace" `Quick test_fw_convergence_trace;
    Alcotest.test_case "mop spans and counters" `Quick test_mop_spans_and_counters;
    Alcotest.test_case "exports are well-formed" `Quick test_exports_well_formed;
    Alcotest.test_case "exports sort counters and spans" `Quick test_exports_sorted;
  ]
