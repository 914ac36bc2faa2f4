(* serve-hit: one request, and every request a memo hit, over the socket
   of an `sgr serve --jobs 1` child: a seed-ordered mix of
   solve/optop/mop/induced/sweep/assign over small links, grid and city
   instances, all warmed in set-up. The solvers do nothing here; this is
   protocol parsing, line framing, the memo probe, reply rendering and
   the select loop. Driven from one thread over two connections, one
   request in flight on each. *)

module Engine = Sgr_serve.Engine
module Protocol = Sgr_serve.Protocol
module Session = Sgr_serve.Session
open Workload

type session = {
  srv : Child.t;
  conns : Child.Client.t array;
  seed : int;
  warm : (string, string) Hashtbl.t;  (** Request line -> its warm-up reply. *)
  memo0 : int * int;  (** (memo hits, memo misses) after the warm-up pass. *)
  instances : (string * string) list;
}

let name = "serve-hit"

(* 1.35M requests in a 30 s run; p99.9 leaves 1350 samples above it. *)
let tail = Stats.P99_9
let ops_per_s = 45_000.0
let warmup = 2_000
let setup_reps = 7
let trace_ops = 4_000
let log = Child.work_dir ^ "/serve-hit.log"
let connections = 2

let setup ~seed =
  let instances = Inputs.hit_instances ~seed in
  let srv = Child.start ~log ~files:(List.map (fun (id, text) -> (id ^ ".inst", text)) instances) in
  match
    let conns = Child.connections srv connections in
    List.iter
      (fun (id, _) ->
        let r = Child.rpc conns.(0) (Printf.sprintf "load %s %s" id (Child.path srv (id ^ ".inst"))) in
        if not (String.starts_with ~prefix:"ok load" r) then Child.fail "load %s: %s" id r)
      instances;
    let warm = Hashtbl.create 16 in
    Array.iter
      (fun line ->
        let r = Child.rpc conns.(0) line in
        if not (String.starts_with ~prefix:"ok " r) then Child.fail "%s: %s" line r;
        Hashtbl.replace warm line r)
      Inputs.hit_mix;
    { srv; conns; seed; warm; memo0 = Child.memo_counts conns.(0); instances }
  with
  | s -> s
  | exception e ->
      Child.stop srv;
      raise e

(* Closed loop in waves: send one request on each connection, then read
   each reply, so one request is in flight per connection. A request's
   latency runs from its send to the read of its reply. *)
let run s ~first ~n =
  let seq = Inputs.hit_sequence ~seed:s.seed (first + n) in
  let lat = Array.make n 0.0 and failed = ref 0 in
  let sent_at = Array.make connections 0L in
  let i = ref 0 in
  while !i < n do
    let wave = min connections (n - !i) in
    for c = 0 to wave - 1 do
      sent_at.(c) <- Host.now_ns ();
      Child.send s.conns.(c) seq.(first + !i + c)
    done;
    for c = 0 to wave - 1 do
      let k = !i + c in
      let reply = Child.recv s.conns.(c) in
      let t = Host.now_ns () in
      lat.(k) <- Int64.to_float (Int64.sub t sent_at.(c)) /. 1e6;
      Spans.record ~name:"serve.rpc" ~op:(Spans.new_op ()) ~start_ns:sent_at.(c) ~end_ns:t;
      if not (String.equal reply (Hashtbl.find s.warm seq.(first + k))) then incr failed
    done;
    i := !i + wave
  done;
  (lat, !failed)

(* No memo miss since the warm-up pass. *)
let final_check s =
  let _, misses = Child.memo_counts s.conns.(0) in
  (1, if misses = snd s.memo0 then 0 else 1)

let peak_rss_mb s = Child.peak_rss_mb s.srv
let close s = Child.stop s.srv

let layers s ~traced_p50_ms =
  let hits, misses = Child.memo_counts s.conns.(0) in
  let hit_ratio =
    let dh = hits - fst s.memo0 and dm = misses - snd s.memo0 in
    float_of_int dh /. float_of_int (dh + dm)
  in
  (* The same requests in-process, on a warm cache of the same files. *)
  let cache = Sgr_serve.Cache.create ~capacity:32 in
  List.iter
    (fun (id, _) ->
      ignore (Engine.execute_raw cache (Printf.sprintf "load %s %s" id (Child.path s.srv (id ^ ".inst")))))
    s.instances;
  let mix = Inputs.hit_mix in
  let lines =
    Array.map
      (fun l -> match Protocol.parse_line l with Ok (Some p) -> p | _ -> Child.fail "unparsable: %s" l)
      mix
  in
  let replies = Array.map (Engine.execute cache) lines in
  (* Batches of [rounds] passes over the mix; µs per request. *)
  let rounds = 200 in
  let per_req_us name f =
    let ms =
      probe name ~reps:7 (fun () ->
          for _ = 1 to rounds do
            f ()
          done)
    in
    1e3 *. ms /. float_of_int (rounds * Array.length mix)
  in
  let parse_us = per_req_us "serve.parse" (fun () -> Array.iter (fun l -> ignore (Protocol.parse_line l)) mix) in
  let execute_us = per_req_us "serve.execute" (fun () -> Array.iter (fun l -> ignore (Engine.execute cache l)) lines) in
  let session = Session.create ~id:1 in
  let framed = Array.map (fun l -> Bytes.of_string (l ^ "\n")) mix in
  let session_us =
    per_req_us "serve.session" (fun () ->
        Array.iteri
          (fun i b ->
            Session.feed session b (Bytes.length b);
            ignore (Session.next_request session);
            Session.push_reply session replies.(i);
            Session.wrote session (String.length (Session.pending_out session)))
          framed)
  in
  let (), alloc =
    alloc_mb (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun l -> ignore (Engine.execute cache l)) lines
        done)
  in
  ( Report.
      [
        metric "serve.parse_us" "us" parse_us;
        metric "serve.execute_us" "us" execute_us;
        metric "serve.session_us" "us" session_us;
        metric "serve.transport_us" "us" ((1e3 *. traced_p50_ms) -. parse_us -. execute_us -. session_us);
        metric "serve.alloc_kb_per_req" "KB" (1e3 *. alloc /. float_of_int (rounds * Array.length mix));
        metric "serve.memo_hit_ratio" "ratio" hit_ratio;
      ],
    no_par )
