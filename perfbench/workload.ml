(* What every workload provides, and the loops and probes they share. *)

module type S = sig
  type session

  val name : string

  val tail : Stats.level
  (** The [latency_tail_ms] level, fixed per workload. *)

  val ops_per_s : float
  (** Nominal op rate: a run of [--seconds s] times [ops_per_s *. s]
      ops, whatever the host's speed, so every run does the same work. *)

  val warmup : int
  (** Untimed ops before the timed ones. *)

  val setup_reps : int
  (** Set-ups per run; [setup_s] is their median. *)

  val trace_ops : int
  (** Ops the traced run times untraced, and as many again traced. *)

  val setup : seed:int -> session

  val run : session -> first:int -> n:int -> float array * int
  (** Ops [first .. first+n-1] of the seed's sequence: their latencies
      in ms and the number that failed their check. *)

  val final_check : session -> int * int
  (** Checks made once after the loops, as (attempted, failed) ops. *)

  val peak_rss_mb : session -> float
  val close : session -> unit

  val layers : session -> traced_p50_ms:float -> Report.metric list * (unit -> Report.metric list)
  (** The traced run's per-layer metrics, and a thunk for the parallel
      ones ([jobs = 2]), which the traced run calls last: once a second
      domain exists, every later minor GC must stop it too. *)
end

let reported = ref false

let note_failure e =
  if not !reported then begin
    reported := true;
    Printf.eprintf "perfbench: op failed: %s\n%!" (Printexc.to_string e)
  end

(* A closed loop of in-process (or lockstep) ops: op [k] is [work k],
   timed alone, then checked by [check k result]. An exception is a
   failed op. *)
let timed_loop ~first ~n ~work ~check =
  let lat = Array.make n 0.0 and failed = ref 0 in
  for i = 0 to n - 1 do
    let k = first + i in
    ignore (Spans.new_op ());
    let t0 = Host.now_ns () in
    match Spans.span "op" (fun () -> work k) with
    | r ->
        lat.(i) <- Host.ms_since t0;
        if not (check k r) then incr failed
    | exception e ->
        lat.(i) <- Host.ms_since t0;
        note_failure e;
        incr failed
  done;
  (lat, !failed)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* ---- probes of the traced run ---- *)

(* [reps] calls of [f], each its own op inside a span [name]; the
   median span duration in ms. *)
let probe name ~reps f =
  for _ = 1 to reps do
    ignore (Spans.new_op ());
    ignore (Spans.span name f)
  done;
  Stats.median (Spans.durations_ms name)

let median_span name =
  match Spans.durations_ms name with [||] -> nan | d -> Stats.median d

(* Bytes the calling domain allocates while [f] runs, in MB. *)
let alloc_mb f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. a0) /. 1e6)

let counter name = Sgr_obs.Obs.value (Sgr_obs.Obs.counter name)

(* Increments of the named library counters while [f] runs. *)
let counter_deltas names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> counter name - b) names before)

let no_par () = []
