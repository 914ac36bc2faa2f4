(* links-sweep: the paper's C(α) curve, [Alpha_sweep.run] at 41 α
   values on ten random polynomial parallel links, in-process. The only
   workload on the links layer: water-filling, OpTop's β and the
   per-α strategy evaluation. *)

module IF = Sgr_io.Instance_file
module Links = Sgr_links.Links
module Sweep = Stackelberg.Alpha_sweep
open Workload

type session = { t : Links.t; reference : Sweep.curve }

let name = "links-sweep"

(* 630 ops in a 30 s run: p99 would leave 6 samples above it. *)
let tail = Stats.P90
let ops_per_s = 21.0
let warmup = 5
let setup_reps = 15
let trace_ops = 20
let samples = 41

let parse text =
  match IF.parse text with
  | Ok (IF.Links t) -> t
  | Ok (IF.Network _) -> invalid_arg "links-sweep: not a links instance"
  | Error m -> invalid_arg ("links-sweep: " ^ m)

let sweep ?(jobs = 1) t = Sweep.run ~jobs ~samples t

let setup ~seed =
  let t = parse (Inputs.links_text ~seed) in
  { t; reference = sweep t }

let same_curve (a : Sweep.curve) (b : Sweep.curve) =
  same_bits [| a.beta |] [| b.beta |]
  && List.length a.points = List.length b.points
  && List.for_all2
       (fun (p : Sweep.point) (q : Sweep.point) ->
         same_bits [| p.alpha; p.ratio |] [| q.alpha; q.ratio |] && p.method_used = q.method_used)
       a.points b.points

let run s ~first ~n =
  timed_loop ~first ~n
    ~work:(fun _ -> Spans.span "core.sweep" (fun () -> sweep s.t))
    ~check:(fun _ c -> same_curve c s.reference)

let final_check _ = (0, 0)
let peak_rss_mb _ = Host.peak_rss_mb "self"
let close _ = ()

let method_name = function
  | Sweep.Exact_threshold -> "threshold"
  | Sweep.Linear_exact -> "thm2.4"
  | Sweep.Grid_search -> "grid"
  | Sweep.Heuristic_upper_bound -> "heuristic"

let layers s ~traced_p50_ms:_ =
  let (_, alloc), counts =
    counter_deltas [ "bisection.iterations"; "links.closed_form.calls" ] (fun () ->
        alloc_mb (fun () -> sweep s.t))
  in
  let optop_ms = probe "core.optop" ~reps:21 (fun () -> Stackelberg.Optop.run s.t) in
  let nash_ms = probe "links.nash" ~reps:201 (fun () -> Links.nash s.t) in
  let opt_ms = probe "links.opt" ~reps:201 (fun () -> Links.opt s.t) in
  (* One [at] per α of the curve, under a span named by the method the
     reference curve used there. *)
  List.iter
    (fun (p : Sweep.point) ->
      ignore (Spans.new_op ());
      ignore
        (Spans.span ("core.sweep_point." ^ method_name p.method_used) (fun () ->
             Sweep.at s.t ~alpha:p.alpha)))
    s.reference.points;
  let per_method m =
    let d = Spans.durations_ms ("core.sweep_point." ^ m) in
    Report.
      [
        metric ("core.sweep_points." ^ m) "count" (float_of_int (Array.length d));
        metric ("core.sweep_point_ms." ^ m) "ms" (if d = [||] then 0.0 else Stats.median d);
      ]
  in
  let metrics =
    Report.
      [
        metric "core.optop_ms" "ms" optop_ms;
        metric "links.nash_us" "us" (1e3 *. nash_ms);
        metric "links.opt_us" "us" (1e3 *. opt_ms);
        metric "links.bisection_iterations" "count" (float_of_int (List.nth counts 0));
        metric "links.closed_form_calls" "count" (float_of_int (List.nth counts 1));
        metric "core.sweep_alloc_mb_per_op" "MB" alloc;
      ]
    @ List.concat_map per_method Report.sweep_methods
  in
  let par () =
    let sweep_ms = median_span "core.sweep" in
    let sweep2_ms = probe "core.sweep.jobs2" ~reps:7 (fun () -> sweep ~jobs:2 s.t) in
    [ Report.metric "par.sweep_speedup" "ratio" (sweep_ms /. sweep2_ms) ]
  in
  (metrics, par)
