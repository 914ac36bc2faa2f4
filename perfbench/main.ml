(* The benchmark runner.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set the workload up, run its warm-up ops, then
   a fixed number of timed ops (the workload's nominal rate times S)
   with more set-ups between them, and print the five end-to-end
   metrics. Traced
   (--trace 1): for every workload, short untraced and traced loops and
   the layer probes; prints every per-layer metric and writes the spans
   to .perfbench/. Either way the last stdout line is the JSON result,
   after a line that records the host (and, untraced, one that gives the
   sample count and latency percentiles). *)

open Perfbench

let workloads : (module Workload.S) list =
  [ (module City_assign); (module Serve_hit); (module Serve_induced); (module Links_sweep) ]

let find name = List.find_opt (fun (module W : Workload.S) -> String.equal W.name name) workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload (city-assign|serve-hit|serve-induced|links-sweep) --seed N \
     --seconds S --trace 0|1";
  exit 2

type tally = { mutable attempted : int; mutable failed : int }

let count tally (attempted, failed) =
  tally.attempted <- tally.attempted + attempted;
  tally.failed <- tally.failed + failed

let loop (type s) (module W : Workload.S with type session = s) tally (s : s) ~first ~n =
  let lat, failed = W.run s ~first ~n in
  count tally (n, failed);
  lat

(* The host has slow spells of a few seconds. Set-ups are therefore
   spread over the run, one before the ops and one after each of
   [setup_reps - 1] equal chunks of them, so that a spell meets about
   the same share of the set-ups as of the ops. The ops run on the
   first session; the later ones are timed and closed. *)
let untraced (module W : Workload.S) ~seed ~seconds tally =
  let setup_ms = Array.make W.setup_reps 0.0 in
  let timed_setup i =
    let t0 = Host.now_ns () in
    let s = W.setup ~seed in
    setup_ms.(i) <- Host.ms_since t0;
    s
  in
  let s = timed_setup 0 in
  Fun.protect ~finally:(fun () -> W.close s) @@ fun () ->
  let n = max 1 (int_of_float (Float.round (W.ops_per_s *. float_of_int seconds))) in
  if Stats.beyond ~n W.tail < 10 then
    Printf.eprintf "perfbench: %s: %d ops leave fewer than 10 samples above %s\n%!" W.name n
      (Stats.level_name W.tail);
  ignore (loop (module W) tally s ~first:0 ~n:W.warmup);
  let chunks = max 1 (W.setup_reps - 1) in
  let lat = ref [] and wall_ms = ref 0.0 in
  for c = 1 to chunks do
    let first = n * (c - 1) / chunks in
    let t0 = Host.now_ns () in
    lat := loop (module W) tally s ~first:(W.warmup + first) ~n:((n * c / chunks) - first) :: !lat;
    wall_ms := !wall_ms +. Host.ms_since t0;
    if c < W.setup_reps then W.close (timed_setup c)
  done;
  let lat = Stats.sorted (Array.concat !lat) and wall_s = !wall_ms /. 1e3 in
  count tally (W.final_check s);
  Printf.printf "samples {\"n\": %d, \"tail\": %S, %s}\n" n (Stats.level_name W.tail)
    (String.concat ", "
       (List.map
          (fun l -> Printf.sprintf "\"%s_ms\": %.6f" (Stats.level_name l) (Stats.percentile lat l))
          Stats.[ P50; P90; P99; P99_9 ]));
  Report.
    [
      metric "throughput_ops_s" "1/s" (float_of_int n /. wall_s);
      metric "latency_p50_ms" "ms" (Stats.percentile lat Stats.P50);
      metric "latency_tail_ms" "ms" (Stats.percentile lat W.tail);
      metric "peak_rss_mb" "MB" (W.peak_rss_mb s);
      metric "setup_s" "s" (Stats.median setup_ms /. 1e3);
    ]

(* One workload's share of the traced run: the tracing overhead and the
   layer probes. The overhead is traced p50 over untraced p50 of the
   same session and op count, in alternating chunks so that host drift
   during the run falls on both sides alike. *)
let traced_one (module W : Workload.S) ~seed tally =
  let s = W.setup ~seed in
  Fun.protect ~finally:(fun () -> W.close s) @@ fun () ->
  let n = W.trace_ops in
  ignore (loop (module W) tally s ~first:0 ~n:(min W.warmup n));
  let rounds = min n 10 in
  let chunk = n / rounds in
  let plain = ref [] and traced = ref [] in
  for r = 0 to rounds - 1 do
    let first = n + (2 * r * chunk) in
    plain := loop (module W) tally s ~first ~n:chunk :: !plain;
    Spans.enabled := true;
    traced := loop (module W) tally s ~first:(first + chunk) ~n:chunk :: !traced;
    Spans.enabled := false
  done;
  let p50 chunks = Stats.median (Array.concat chunks) in
  let plain = p50 !plain and traced = p50 !traced in
  Spans.enabled := true;
  let metrics, par = W.layers s ~traced_p50_ms:traced in
  Spans.enabled := false;
  count tally (W.final_check s);
  (Report.metric ("trace.p50_ratio." ^ W.name) "ratio" (traced /. plain) :: metrics, par)

let traced ~workload ~seed tally =
  let parts = List.map (fun w -> traced_one w ~seed tally) workloads in
  Spans.enabled := true;
  let par = List.concat_map (fun (_, par) -> par ()) parts in
  Spans.enabled := false;
  Child.mkdir_p Child.work_dir;
  Spans.write (Printf.sprintf "%s/spans-%s-%d.jsonl" Child.work_dir workload seed);
  List.concat_map fst parts @ par

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let w = match find workload with Some w -> w | None -> usage () in
  if seconds < 1 then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Leave through [exit] so the at_exit hook stops any server child. *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  Sgr_par.Pool.set_default_jobs 1;
  Child.mkdir_p Child.work_dir;
  let tally = { attempted = 0; failed = 0 } in
  match
    let host = Host.start () in
    let metrics = if trace then traced ~workload ~seed tally else untraced w ~seed ~seconds tally in
    (host, metrics)
  with
  | exception (Child.Failed m) ->
      Printf.eprintf "perfbench: %s: %s\n%!" workload m;
      exit 1
  | host, metrics ->
      let expected = if trace then Report.per_layer else Report.end_to_end in
      let correct = tally.failed = 0 in
      print_endline (Host.finish host);
      print_endline
        (Report.result_line ~expected ~correct ~attempted:tally.attempted ~failed:tally.failed metrics);
      if not correct then exit 1
