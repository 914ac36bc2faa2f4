type event =
  | Span_begin of { name : string; ts : float; depth : int }
  | Span_end of { name : string; ts : float; dur : float; depth : int }
  | Point of {
      solver : string;
      k : int;
      gap : float;
      objective : float;
      step : float;
      ts : float;
    }

(* ---------------- counters ---------------- *)

(* Counters are atomic so hot paths on worker domains (parallel alpha
   sweeps, per-commodity pricing) keep exact counts; kernels batch
   their updates (one [add] per run) so the atomic traffic stays off
   the innermost loops. The registry itself is touched rarely
   ([counter] calls are module-initialization time in practice) but is
   mutex-guarded for safety. *)
type counter = { name : string; count : int Atomic.t }

(* Guarded by [registry_mutex] below on every access. *)
let registry : (string, counter) Hashtbl.t =
  Hashtbl.create 32
[@@lint.allow "mutable-global"] [@@lint.allow "lock-discipline"]

let registry_mutex = Mutex.create ()

(* why: the registry mutex guards an O(1) table hit; [counter] is called
   at module-initialization time in practice and callers keep the handle,
   so a pool worker landing here parks for a lookup, not for I/O. *)
let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; count = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock registry_mutex;
  c
[@@lint.allow "no-blocking-in-pool"]

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let value c = Atomic.get c.count

(* why: rendering metrics is the request's own work; the lock covers one
   fold over the counter table (atomic loads, no I/O), then is dropped
   before sorting. *)
let counters () =
  Mutex.lock registry_mutex;
  let snapshot = Hashtbl.fold (fun _ c acc -> (c.name, Atomic.get c.count) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) snapshot
[@@lint.allow "no-blocking-in-pool"]

let reset_counters () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) registry;
  Mutex.unlock registry_mutex

(* ---------------- clock ---------------- *)

let default_clock = Unix.gettimeofday

(* Sink-domain-only state (see the discipline note below): mutated from
   the domain that installs the sink, never from pool workers. *)
let clock = ref default_clock [@@lint.allow "mutable-global"] [@@lint.allow "lock-discipline"]
let set_clock f = clock := f
let now () = !clock ()

(* ---------------- sink, spans, points ---------------- *)

(* The sink, its nesting depth and the recorder callback behind it are
   single-domain state: events are only emitted from the domain that
   installed the sink (the main domain in every current use). Worker
   domains run spans as plain calls and skip trace points; counters
   (atomic, above) remain exact everywhere. *)
let sink : (event -> unit) option ref =
  ref None
[@@lint.allow "mutable-global"] [@@lint.allow "lock-discipline"]

let sink_domain = ref (-1) [@@lint.allow "mutable-global"] [@@lint.allow "lock-discipline"]
let on_sink_domain () = (Domain.self () :> int) = !sink_domain

let set_sink f =
  sink := f;
  sink_domain := (match f with None -> -1 | Some _ -> (Domain.self () :> int))

let enabled () = Option.is_some !sink && on_sink_domain ()

(* Only touched by [span] after the [on_sink_domain] gate. *)
let depth = ref 0 [@@lint.allow "mutable-global"] [@@lint.allow "lock-discipline"]

let span name f =
  match !sink with
  | None -> f ()
  | Some _ when not (on_sink_domain ()) -> f ()
  | Some emit ->
      let d = !depth in
      depth := d + 1;
      let t0 = now () in
      emit (Span_begin { name; ts = t0; depth = d });
      let close () =
        depth := d;
        let t1 = now () in
        emit (Span_end { name; ts = t1; dur = t1 -. t0; depth = d })
      in
      let v = try f () with e -> close (); raise e in
      close ();
      v

let point ~solver ~k ~gap ~objective ~step =
  match !sink with
  | Some emit when on_sink_domain () ->
      emit (Point { solver; k; gap; objective; step; ts = now () })
  | _ -> ()

(* ---------------- sinks ---------------- *)

module Recorder = struct
  type t = { mutable rev_events : event list }

  let create () = { rev_events = [] }
  let install r = set_sink (Some (fun e -> r.rev_events <- e :: r.rev_events))
  let events r = List.rev r.rev_events
  let clear r = r.rev_events <- []
end
