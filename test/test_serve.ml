(* Tests for the serving subsystem: LRU, fingerprints, the request
   protocol, the engine, and the batch determinism guarantee. *)

open Helpers
module IF = Sgr_io.Instance_file
module W = Sgr_workloads.Workloads
module Lru = Sgr_serve.Lru
module Fp = Sgr_serve.Fingerprint
module Cache = Sgr_serve.Cache
module P = Sgr_serve.Protocol
module Engine = Sgr_serve.Engine

(* ---------------- LRU ---------------- *)

let test_lru_capacity_one () =
  let l = Lru.create ~capacity:1 in
  Alcotest.(check (option (pair string string))) "no eviction on first add" None
    (Lru.add l "a" "1");
  Alcotest.(check (option string)) "find a" (Some "1") (Lru.find l "a");
  (match Lru.add l "b" "2" with
  | Some ("a", "1") -> ()
  | _ -> Alcotest.fail "adding b to a full capacity-1 cache must evict a");
  Alcotest.(check (option string)) "a is gone" None (Lru.find l "a");
  Alcotest.(check (option string)) "b is in" (Some "2") (Lru.find l "b");
  Alcotest.(check int) "length stays 1" 1 (Lru.length l)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:3 in
  List.iter (fun k -> ignore (Lru.add l k k)) [ "a"; "b"; "c" ];
  (* Touch [a]: now [b] is the least recently used. *)
  ignore (Lru.find l "a");
  (match Lru.add l "d" "d" with
  | Some ("b", _) -> ()
  | Some (k, _) -> Alcotest.failf "evicted %S, expected the untouched b" k
  | None -> Alcotest.fail "full cache must evict");
  Alcotest.(check (list string)) "MRU -> LRU order" [ "d"; "a"; "c" ] (Lru.keys l)

let test_lru_hit_after_evict_misses () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" "1");
  ignore (Lru.add l "b" "2");
  ignore (Lru.add l "c" "3");
  Alcotest.(check (option string)) "evicted key misses" None (Lru.find l "a");
  (* Re-adding after the miss works and evicts the current LRU. *)
  (match Lru.add l "a" "1'" with
  | Some ("b", _) -> ()
  | _ -> Alcotest.fail "re-add must evict b");
  Alcotest.(check (option string)) "re-added key hits" (Some "1'") (Lru.find l "a")

let test_lru_replace_same_key () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" "1");
  Alcotest.(check (option (pair string string))) "same-key add replaces, no evict" None
    (Lru.add l "a" "2");
  Alcotest.(check (option string)) "new value visible" (Some "2") (Lru.find l "a");
  Alcotest.(check int) "no duplicate node" 1 (Lru.length l)

let test_lru_bad_capacity () =
  match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* ---------------- fingerprints ---------------- *)

let test_fingerprint_stability () =
  let text = IF.print_links W.pigou in
  let parse t =
    match IF.parse t with Ok i -> i | Error m -> Alcotest.failf "parse failed: %s" m
  in
  let fp1 = Fp.of_instance (parse text) and fp2 = Fp.of_instance (parse text) in
  Alcotest.(check string) "same bytes, same fingerprint" fp1 fp2;
  (* A perturbed latency coefficient must change the key. *)
  let perturbed =
    IF.Links
      (Sgr_links.Links.make
         [| Sgr_latency.Latency.linear (1.0 +. 1e-12); Sgr_latency.Latency.constant 1.0 |]
         ~demand:1.0)
  in
  check_true "perturbed coefficient changes the fingerprint"
    (not (String.equal fp1 (Fp.of_instance perturbed)))

let test_fingerprint_fnv_vector () =
  (* Standard FNV-1a test vectors pin the constants. *)
  Alcotest.(check string) "fnv empty" "cbf29ce484222325" (Fp.hex (Fp.fnv1a64 ""));
  Alcotest.(check string) "fnv a" "af63dc4c8601ec8c" (Fp.hex (Fp.fnv1a64 "a"))

(* ---------------- protocol ---------------- *)

let test_protocol_parse () =
  (match P.parse_line "  " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank is skipped");
  (match P.parse_line "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment is skipped");
  (match P.parse_line "solve p nash" with
  | Ok (Some { deadline_ms = None; request = P.Solve { id = "p"; obj = `Nash } }) -> ()
  | _ -> Alcotest.fail "solve nash");
  (match P.parse_line "@250 optop p" with
  | Ok (Some { deadline_ms = Some 250; request = P.Optop { id = "p" } }) -> ()
  | _ -> Alcotest.fail "deadline prefix");
  (match P.parse_line "sweep p 0 1 5" with
  | Ok (Some { request = P.Sweep_range { lo = 0.0; hi = 1.0; samples = 5; _ }; _ }) -> ()
  | _ -> Alcotest.fail "sweep range");
  (match P.parse_line "sweep p 0 1 1001" with
  | Ok (Some { request = P.Sweep_range { samples = 1001; _ }; _ }) -> ()
  | _ -> Alcotest.fail "a 0.001 alpha grid is accepted");
  (match P.parse_line "sweep p 0 1 1002" with
  | Error m ->
      Alcotest.(check string) "sample bound message"
        "sweep range expects 'sweep ID LO HI N' with 0 <= LO <= HI <= 1 and 2 <= N <= 1001" m
  | Ok _ -> Alcotest.fail "more than 1001 samples are rejected");
  (match P.parse_line "metrics" with
  | Ok (Some { deadline_ms = None; request = P.Metrics }) -> ()
  | _ -> Alcotest.fail "metrics verb");
  (match P.memo_key P.Metrics with
  | None -> ()
  | Some _ -> Alcotest.fail "metrics must not be memoized");
  (match P.parse_line "induced p 1.5" with
  | Error _ -> ()
  | _ -> Alcotest.fail "alpha out of range is rejected");
  (match P.parse_line "@x ping" with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad deadline is rejected")

let test_memo_keys () =
  let some = function Some k -> k | None -> Alcotest.fail "expected a memo key" in
  let k1 = some (P.memo_key (P.Solve { id = "a"; obj = `Nash })) in
  let k2 = some (P.memo_key (P.Solve { id = "b"; obj = `Nash })) in
  Alcotest.(check string) "memo keys are id-independent" k1 k2;
  check_true "objective distinguishes keys"
    (not (String.equal k1 (some (P.memo_key (P.Solve { id = "a"; obj = `Opt })))));
  (match P.memo_key P.Stats with
  | None -> ()
  | Some _ -> Alcotest.fail "stats must not be memoized")

let test_memo_keys_request_alone () =
  (* Each key is the request's kind and parameters and nothing else: an
     engine tag or config value leaking into keys fails here. *)
  let key req =
    match P.memo_key req with Some k -> k | None -> Alcotest.fail "expected a memo key"
  in
  List.iter
    (fun (expected, req) -> Alcotest.(check string) expected expected (key req))
    [
      ("solve|nash", P.Solve { id = "a"; obj = `Nash });
      ("solve|opt", P.Solve { id = "a"; obj = `Opt });
      ("assign|nash|fw", P.Assign { id = "a"; obj = `Nash; method_ = `Fw });
      ("assign|opt|msa", P.Assign { id = "a"; obj = `Opt; method_ = `Msa });
      ("optop", P.Optop { id = "a" });
      ("mop", P.Mop { id = "a" });
      (Printf.sprintf "induced|%h" 0.25, P.Induced { id = "a"; alpha = 0.25 });
      (Printf.sprintf "sweep|%h" 0.5, P.Sweep_point { id = "a"; alpha = 0.5 });
      ( Printf.sprintf "sweep|%h|%h|%d" 0.0 1.0 5,
        P.Sweep_range { id = "a"; lo = 0.0; hi = 1.0; samples = 5 } );
    ];
  (* Parsing maps -0 to 0, so a negative zero shares the zero's key. *)
  let parsed raw =
    match P.parse_line raw with
    | Ok (Some l) -> key l.P.request
    | _ -> Alcotest.failf "%S must parse" raw
  in
  List.iter
    (fun (expected, raw) -> Alcotest.(check string) raw expected (parsed raw))
    [
      (Printf.sprintf "induced|%h" 0.0, "induced a -0");
      (Printf.sprintf "sweep|%h" 0.0, "sweep a -0");
      (Printf.sprintf "sweep|%h|%h|%d" 0.0 1.0 3, "sweep a -0 1 3");
      (Printf.sprintf "sweep|%h|%h|%d" 0.0 0.0 3, "sweep a -0 -0 3");
    ]

(* ---------------- engine ---------------- *)

let with_instance_file inst f =
  let path = Filename.temp_file "sgr_serve_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (match inst with IF.Links t -> IF.print_links t | IF.Network n -> IF.print_network n));
      f path)

let test_engine_pigou () =
  with_instance_file (IF.Links W.pigou) @@ fun path ->
  let cache = Cache.create ~capacity:4 in
  let run raw =
    match Engine.execute_raw cache raw with
    | Some r -> r
    | None -> Alcotest.failf "no reply for %S" raw
  in
  check_true "load ok"
    (String.length (run (Printf.sprintf "load p %s" path)) > 0);
  Alcotest.(check string) "nash cost" "ok solve id=p obj=nash cost=1" (run "solve p nash");
  Alcotest.(check string) "opt cost" "ok solve id=p obj=opt cost=0.75" (run "solve p opt");
  Alcotest.(check string) "optop"
    "ok optop id=p beta=0.5 nash_cost=1 opt_cost=0.75 induced_cost=0.75" (run "optop p");
  Alcotest.(check string) "induced at -0 replies alpha=0"
    "ok induced id=p alpha=0 cost=1 ratio=1.33333333" (run "induced p -0");
  Alcotest.(check string) "sweep at -0 replies alpha=0"
    "ok sweep id=p alpha=0 ratio=1.33333333 method=grid" (run "sweep p -0");
  Alcotest.(check string) "sweep range from -0 starts at 0"
    "ok sweep id=p beta=0.5 n=3 points=0:1.33333333,0.5:1,1:1" (run "sweep p -0 1 3");
  Alcotest.(check string) "unknown id"
    "error parse: unknown instance id \"zzz\" (load it first)" (run "solve zzz nash");
  Alcotest.(check string) "wrong kind" "error solve: mop needs a network instance" (run "mop p");
  Alcotest.(check string) "parse error"
    "error parse: unknown or malformed request \"frobnicate\"" (run "frobnicate the network")

let test_engine_memo_and_reload () =
  with_instance_file (IF.Links W.pigou) @@ fun path ->
  (* Capacity 1 and two distinct instances: the second load evicts the
     first, and a later request transparently reloads from the bound
     path. *)
  with_instance_file (IF.Links W.fig456) @@ fun path2 ->
  let cache = Cache.create ~capacity:1 in
  let run raw = Option.get (Engine.execute_raw cache raw) in
  ignore (run (Printf.sprintf "load p %s" path));
  let first = run "solve p nash" in
  ignore (run (Printf.sprintf "load q %s" path2));
  let stats = Cache.stats cache in
  Alcotest.(check int) "eviction happened" 1 stats.Cache.evictions;
  Alcotest.(check string) "reload after evict gives the same reply" first (run "solve p nash")

let contains s sub =
  let n = String.length s and ml = String.length sub in
  let rec find i = i + ml <= n && (String.equal (String.sub s i ml) sub || find (i + 1)) in
  find 0

let starts_with s prefix =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let test_engine_timeout () =
  (* Pre-emptive deadline: a deadline the request cannot meet aborts the
     solve mid-compute through the solver checkpoints, and the
     cancelled result is NOT memoized — the retry recomputes cold. *)
  let rng = Sgr_numerics.Prng.create 42 in
  (* Big enough that the cold solve takes tens of milliseconds — the
     1ms pre-emption below must land well under it. *)
  let net = W.grid_network rng ~rows:12 ~cols:12 () in
  with_instance_file (IF.Network net) @@ fun path ->
  let cache = Cache.create ~capacity:4 in
  let run raw = Option.get (Engine.execute_raw cache raw) in
  ignore (run (Printf.sprintf "load g %s" path));
  let t0 = Sgr_obs.Obs.now () in
  let reply = run "@1 mop g" in
  let cancelled_s = Sgr_obs.Obs.now () -. t0 in
  check_true "deadline 1ms on a cold mop times out" (starts_with reply "error timeout");
  check_true "reply says nothing was memoized" (contains reply "no result memoized");
  (* The cancelled compute left no memo entry: the retry is a miss that
     recomputes, and only the third run hits. *)
  let misses_before = (Cache.stats cache).Cache.memo_misses in
  let t1 = Sgr_obs.Obs.now () in
  let retry = run "mop g" in
  let cold_s = Sgr_obs.Obs.now () -. t1 in
  check_true "retry succeeds" (starts_with retry "ok ");
  Alcotest.(check int) "retry is a memo miss (nothing was stored)" (misses_before + 1)
    (Cache.stats cache).Cache.memo_misses;
  let hits_before = (Cache.stats cache).Cache.memo_hits in
  ignore (run "mop g");
  Alcotest.(check int) "third run hits the memo" (hits_before + 1)
    (Cache.stats cache).Cache.memo_hits;
  check_true
    (Printf.sprintf "pre-empted in %.1fms, well under the %.1fms cold solve" (1e3 *. cancelled_s)
       (1e3 *. cold_s))
    (cancelled_s < cold_s /. 2.0)

let counter_moves before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v <> v0 then Some (name, v - v0) else None)
    after

let test_engine_warm_pass_no_work () =
  (* A cold batch loads a 6×6 grid and answers 30 solve/mop requests;
     the same 30 requests again on the same cache must be memo hits
     alone, with the cold replies. Not one counter outside serve.*
     moves: no Dijkstra, no latency evaluation, no bisection, no pool
     batch. The warm pass sends no [load]: re-loading a cached file
     re-runs the network's reachability check. *)
  let net = W.grid_network (Sgr_numerics.Prng.create 9003) ~rows:6 ~cols:6 () in
  with_instance_file (IF.Network net) @@ fun path ->
  let kinds = [| "solve g nash"; "solve g opt"; "mop g" |] in
  let verbs = List.init 30 (fun i -> kinds.(i mod Array.length kinds)) in
  let cache = Cache.create ~capacity:8 in
  let c0 = Sgr_obs.Obs.counters () in
  let cold = Engine.run_batch ~jobs:1 cache (Printf.sprintf "load g %s" path :: verbs) in
  let c1 = Sgr_obs.Obs.counters () in
  let warm = Engine.run_batch ~jobs:1 cache verbs in
  let moved = counter_moves c1 (Sgr_obs.Obs.counters ()) in
  let moved_by name = Option.value (List.assoc_opt name moved) ~default:0 in
  check_true "the cold pass evaluates latencies"
    (List.mem_assoc "latency.evaluations" (counter_moves c0 c1));
  Alcotest.(check (list string)) "warm replies equal the cold ones" (List.tl cold) warm;
  Alcotest.(check (list (pair string int))) "no counter outside serve.* moves" []
    (List.filter (fun (name, _) -> not (starts_with name "serve.")) moved);
  Alcotest.(check int) "serve.memo.hit" 30 (moved_by "serve.memo.hit");
  Alcotest.(check int) "serve.memo.miss" 0 (moved_by "serve.memo.miss")

(* ---------------- line reader and sessions ---------------- *)

module Lineio = Sgr_serve.Lineio
module Session = Sgr_serve.Session

let test_lineio_many_lines_one_read () =
  (* Many lines arriving in one chunk come back one by one, in order —
     and the scan offset makes the whole drain O(total bytes), which is
     what replaced the quadratic per-line Buffer.contents scan. *)
  let t = Lineio.create ~capacity:8 () in
  let n = 500 in
  Lineio.feed_string t
    (String.concat "" (List.init n (fun i -> Printf.sprintf "line %d\n" i)));
  let ok = ref 0 in
  for i = 0 to n - 1 do
    match Lineio.next t with
    | Some l when String.equal l (Printf.sprintf "line %d" i) -> incr ok
    | _ -> ()
  done;
  Alcotest.(check int) "every line back, in order" n !ok;
  check_true "drained" (Lineio.next t = None);
  Alcotest.(check int) "no pending bytes" 0 (Lineio.pending_length t)

let test_lineio_chunk_boundaries () =
  let t = Lineio.create ~capacity:4 () in
  let chunk = Bytes.of_string "alpha\nbe" in
  Lineio.feed t chunk 0 (Bytes.length chunk);
  Alcotest.(check (option string)) "complete line" (Some "alpha") (Lineio.next t);
  Alcotest.(check (option string)) "partial line held back" None (Lineio.next t);
  Lineio.feed_string t "ta\n\ngam";
  Alcotest.(check (option string)) "line split across chunks joins" (Some "beta") (Lineio.next t);
  Alcotest.(check (option string)) "empty line preserved" (Some "") (Lineio.next t);
  Alcotest.(check (option string)) "tail still partial" None (Lineio.next t);
  Alcotest.(check int) "pending tail length" 3 (Lineio.pending_length t);
  Alcotest.(check string) "take_rest returns the unterminated tail" "gam" (Lineio.take_rest t);
  Alcotest.(check int) "drained after take_rest" 0 (Lineio.pending_length t)

let feed_str s str =
  let b = Bytes.of_string str in
  Session.feed s b (Bytes.length b)

let test_session_pipelining () =
  let s = Session.create ~id:7 in
  feed_str s "ping\nstats\npi";
  Alcotest.(check (option string)) "first request" (Some "ping") (Session.next_request s);
  Alcotest.(check (option string)) "second request" (Some "stats") (Session.next_request s);
  Alcotest.(check (option string)) "partial line is not a request" None (Session.next_request s);
  feed_str s "ng\n";
  Alcotest.(check (option string)) "completed third" (Some "ping") (Session.next_request s);
  Session.push_reply s "ok pong";
  Session.push_reply s "ok stats";
  Alcotest.(check string) "replies queue in order" "ok pong\nok stats\n" (Session.pending_out s);
  Session.wrote s 3;
  Alcotest.(check string) "partial write consumes a prefix" "pong\nok stats\n"
    (Session.pending_out s);
  Session.wrote s 14;
  Alcotest.(check string) "drained" "" (Session.pending_out s);
  check_true "read side still open, not finished" (not (Session.finished s));
  Alcotest.(check int) "request lines counted" 3 (Session.lines_in s);
  Alcotest.(check int) "replies counted" 2 (Session.replies_out s)

let test_session_quit_eof_abort () =
  (* quit discards the rest of the pipeline. *)
  let s = Session.create ~id:1 in
  feed_str s "ping\nquit\nping\n";
  ignore (Session.next_request s);
  Session.push_reply s "ok pong";
  Alcotest.(check (option string)) "quit pops" (Some "quit") (Session.next_request s);
  Session.push_reply s "ok bye";
  Alcotest.(check (option string)) "requests after quit are discarded" None
    (Session.next_request s);
  check_true "not finished until the out queue drains" (not (Session.finished s));
  Session.wrote s (String.length (Session.pending_out s));
  check_true "finished once drained" (Session.finished s);
  Alcotest.(check string) "close reason" "quit" (Session.close_reason s);
  (* EOF: a trailing unterminated line still counts as a request. *)
  let s2 = Session.create ~id:2 in
  feed_str s2 "ping\npi";
  Session.feed_eof s2;
  Alcotest.(check (option string)) "line before eof" (Some "ping") (Session.next_request s2);
  Alcotest.(check (option string)) "trailing unterminated line served" (Some "pi")
    (Session.next_request s2);
  Session.push_reply s2 "ok pong";
  check_true "undrained eof session is not finished" (not (Session.finished s2));
  Session.wrote s2 (String.length (Session.pending_out s2));
  check_true "drained eof session finishes" (Session.finished s2);
  Alcotest.(check string) "close reason" "disconnected" (Session.close_reason s2);
  (* abort (write failure) drops everything at once. *)
  let s3 = Session.create ~id:3 in
  feed_str s3 "ping\nping\n";
  Session.push_reply s3 "ok pong";
  Session.abort s3;
  Alcotest.(check string) "no pending output after abort" "" (Session.pending_out s3);
  Alcotest.(check (option string)) "no requests after abort" None (Session.next_request s3);
  check_true "aborted session is finished" (Session.finished s3)

(* ---------------- concurrent server ---------------- *)

module Server = Sgr_serve.Server
module Client = Sgr_serve.Client

(* An in-process server on a scratch socket. A watchdog thread stops it
   on the way out, or after 30 s at the latest: a reply that never
   comes then fails the test (the waiting client sees the connection
   close) instead of hanging it. *)
let with_server ?(capacity = 8) f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.temp_dir "sgr_serve_test" "" in
  let socket = Filename.concat dir "s.sock" in
  let cache = Cache.create ~capacity in
  let server = Server.create ~socket_path:socket ~cache ~log:(fun _ -> ()) in
  let th = Thread.create Server.run server in
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 30.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Server.request_stop server)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Thread.join watchdog;
      Thread.join th;
      (try Sys.remove socket with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "server did not come up"
    else begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  f socket

(* One connection per stream, all open at once, driven in waves: each
   wave sends every client's next request before reading any reply, so
   up to one request per client is in flight in the one server process;
   the replies are then read in client order. *)
let run_in_waves socket streams =
  let streams = Array.of_list (List.map Array.of_list streams) in
  let clients = Array.map (fun _ -> Client.connect socket) streams in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients) @@ fun () ->
  let replies = Array.map (fun _ -> ref []) streams in
  let waves = Array.fold_left (fun n s -> Int.max n (Array.length s)) 0 streams in
  for w = 0 to waves - 1 do
    let sent =
      Array.mapi (fun c s -> w < Array.length s && Client.send clients.(c) s.(w)) streams
    in
    Array.iteri
      (fun c sent -> if sent then replies.(c) := Client.recv clients.(c) :: !(replies.(c)))
      sent
  done;
  Array.map (fun r -> List.rev !r) replies

(* The streams run concurrently in waves, then back to back on one
   connection to a fresh server. Both runs first send [setup] on a
   connection of their own and end with [stats] on it. Replies are a
   pure function of (instance, request) and the server computes one
   request at a time, so each client's replies must equal its stream's
   sequential replies byte for byte, none of them an error, and the
   two [stats] replies must agree. Returns the sequential [stats]. *)
let check_concurrent_matches_sequential ~setup streams =
  let run drive =
    with_server @@ fun socket ->
    let c = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.iter
      (fun l ->
        let r = Option.get (Client.rpc c l) in
        check_true (Printf.sprintf "setup %S: %s" l r) (starts_with r "ok "))
      setup;
    let replies = drive socket c in
    (replies, Option.get (Client.rpc c "stats"))
  in
  let concurrent, concurrent_stats = run (fun socket _ -> run_in_waves socket streams) in
  let sequential, sequential_stats =
    run (fun _ c -> Array.of_list (List.map (List.filter_map (Client.rpc c)) streams))
  in
  Array.iteri
    (fun i replies ->
      List.iter
        (fun r ->
          check_true (Printf.sprintf "client %d: %s" (i + 1) r) (not (starts_with r "error")))
        replies;
      Alcotest.(check (list string))
        (Printf.sprintf "client %d replies byte-identical to sequential" (i + 1))
        sequential.(i) replies)
    concurrent;
  Alcotest.(check string) "stats agree" sequential_stats concurrent_stats;
  sequential_stats

let test_server_concurrent_clients () =
  with_instance_file (IF.Links W.pigou) @@ fun pigou ->
  with_instance_file (IF.Links W.fig456) @@ fun fig ->
  ignore
    (check_concurrent_matches_sequential ~setup:[]
       [
         [ Printf.sprintf "load a %s" pigou; "solve a nash"; "optop a"; "induced a 0.25" ];
         [ Printf.sprintf "load b %s" fig; "solve b nash"; "solve b opt"; "sweep b 0.5" ];
       ])

let test_server_four_clients () =
  (* Four clients over two link games and a 3×3 grid, mixing every verb
     a serving workload sends: solve nash|opt, optop, mop, induced on
     links and on the grid, and sweep at a point and over a range. The
     instances are loaded once up front, so no reply depends on which
     client reached a file first; the streams overlap, so some requests
     are memo hits, and the pinned [stats] fixes how many. *)
  with_instance_file (IF.Links W.pigou) @@ fun pigou ->
  with_instance_file (IF.Links W.fig456) @@ fun fig ->
  let grid = W.grid_network (Sgr_numerics.Prng.create 9011) ~rows:3 ~cols:3 () in
  with_instance_file (IF.Network grid) @@ fun grid ->
  let setup =
    [ Printf.sprintf "load p %s" pigou; Printf.sprintf "load f %s" fig;
      Printf.sprintf "load g %s" grid ]
  in
  let stats =
    check_concurrent_matches_sequential ~setup
      [
        [ "solve p nash"; "solve g opt"; "optop f"; "induced g 0.5"; "sweep p 0.25"; "mop g";
          "induced p 0.75"; "solve f opt" ];
        [ "solve g nash"; "optop p"; "induced f 0.25"; "sweep f 0.5"; "mop g"; "solve p nash";
          "induced g 0.5"; "sweep p 0 1 5" ];
        [ "mop g"; "solve f nash"; "induced p 0.75"; "optop p"; "solve g nash"; "sweep f 1";
          "induced g 0"; "solve p opt" ];
        [ "induced g 0.25"; "sweep p 0.25"; "solve f opt"; "optop f"; "solve g opt";
          "sweep p 0 1 5"; "induced f 0.25"; "mop g" ];
      ]
  in
  Alcotest.(check string) "stats after the sequential replay"
    "ok stats entries=3 capacity=8 hits=32 misses=3 evictions=0 memo_hits=14 memo_misses=18 \
     memo_hit_rate=0.4375 occupancy=0.375"
    stats

let test_server_pipelined_sessions () =
  with_instance_file (IF.Links W.pigou) @@ fun pigou ->
  with_instance_file (IF.Links W.fig456) @@ fun fig ->
  with_server @@ fun socket ->
  let c1 = Client.connect socket and c2 = Client.connect socket in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  (* Both clients push their whole pipeline before reading anything:
     replies still come back complete and in request order per
     session. *)
  let s1 = [ Printf.sprintf "load a %s" pigou; "solve a nash"; "ping" ] in
  let s2 = [ Printf.sprintf "load b %s" fig; "optop b"; "ping" ] in
  List.iter (fun r -> ignore (Client.send c1 r)) s1;
  List.iter (fun r -> ignore (Client.send c2 r)) s2;
  let r1 = List.map (fun _ -> Client.recv c1) s1 in
  let r2 = List.map (fun _ -> Client.recv c2) s2 in
  (match r1 with
  | [ load; solve; pong ] ->
      check_true "c1 load first" (starts_with load "ok load id=a");
      Alcotest.(check string) "c1 solve second" "ok solve id=a obj=nash cost=1" solve;
      Alcotest.(check string) "c1 ping last" "ok pong" pong
  | _ -> Alcotest.failf "client 1 got %d replies, expected 3" (List.length r1));
  match r2 with
  | [ load; optop; pong ] ->
      check_true "c2 load first" (starts_with load "ok load id=b");
      check_true "c2 optop second" (starts_with optop "ok optop id=b");
      Alcotest.(check string) "c2 ping last" "ok pong" pong
  | _ -> Alcotest.failf "client 2 got %d replies, expected 3" (List.length r2)

let test_server_busy () =
  with_server @@ fun socket ->
  let s2 =
    Server.create ~socket_path:socket ~cache:(Cache.create ~capacity:2) ~log:(fun _ -> ())
  in
  match Server.run s2 with
  | () -> Alcotest.fail "a second server must refuse a live socket"
  | exception Server.Busy p -> Alcotest.(check string) "busy reports the path" socket p

(* The socket path appears only after listen(2): the server binds a
   temporary sibling name and renames it into place. Polling for the
   path, as every waiter does, must find a socket that already accepts,
   alone in its directory; stopping removes it. *)
let test_server_socket_dir () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.temp_dir "sgr_serve_test" "" in
  let socket = Filename.concat dir "s.sock" in
  let server =
    Server.create ~socket_path:socket ~cache:(Cache.create ~capacity:2) ~log:(fun _ -> ())
  in
  let th = Thread.create Server.run server in
  let running = ref true in
  let stop () =
    if !running then begin
      running := false;
      Server.request_stop server;
      Thread.join th
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let rec wait n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "server did not come up"
    else begin
      Thread.delay 0.001;
      wait (n - 1)
    end
  in
  wait 5000;
  let c = Client.connect socket in
  Alcotest.(check (option string)) "first connect is served" (Some "ok pong") (Client.rpc c "ping");
  Client.close c;
  Alcotest.(check (array string)) "only the socket while serving" [| "s.sock" |] (Sys.readdir dir);
  stop ();
  Alcotest.(check (array string)) "nothing left after stop" [||] (Sys.readdir dir)

(* ---------------- batch determinism ---------------- *)

(* Random request files over two instances must produce byte-identical
   replies at any job count. [stats] lines are the documented exception
   (operational counters depend on scheduling) and deadline-tagged
   requests are timing-dependent by design, so the generator emits
   neither. *)
let prop_batch_jobs_deterministic =
  Helpers.qcheck ~count:25 "sgr batch replies are byte-identical at --jobs 1 and 4"
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 20) small_nat))
    (fun (seed, picks) ->
      with_instance_file (IF.Links W.pigou) @@ fun pigou ->
      with_instance_file (IF.Links W.fig456) @@ fun fig ->
      let rng = Sgr_numerics.Prng.create (seed + 1) in
      let id () = if Sgr_numerics.Prng.bool rng then "a" else "b" in
      let request pick =
        match pick mod 8 with
        | 0 -> Printf.sprintf "solve %s nash" (id ())
        | 1 -> Printf.sprintf "solve %s opt" (id ())
        | 2 -> Printf.sprintf "optop %s" (id ())
        | 3 -> Printf.sprintf "induced %s 0.25" (id ())
        | 4 -> Printf.sprintf "sweep %s 0.5" (id ())
        | 5 -> "ping"
        | 6 -> Printf.sprintf "solve %s garbage" (id ())
        | _ -> Printf.sprintf "mop %s" (id ())
      in
      let lines =
        (Printf.sprintf "load a %s" pigou :: Printf.sprintf "load b %s" fig
        :: List.map request picks)
        @ [ "quit"; "solve a nash" ]
      in
      let run jobs = Engine.run_batch ~jobs (Cache.create ~capacity:4) lines in
      let r1 = run 1 and r4 = run 4 in
      List.length r1 = List.length r4 && List.for_all2 String.equal r1 r4)

(* ---------------- metrics determinism ---------------- *)

(* Everything before the latency-section marker: the part of the
   exposition covered by the determinism guarantee. *)
let counts_section body =
  let is_marker l =
    String.length l >= 25 && String.equal (String.sub l 0 25) "# --- latency histograms:"
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: _ when is_marker l -> List.rev acc
    | l :: rest -> take (l :: acc) rest
  in
  String.concat "\n" (take [] (String.split_on_char '\n' body))

(* The counts-and-gauges section of the metrics exposition is a pure
   function of the request history: byte-identical at --jobs 1 and 4
   as long as the working set fits the cache (eviction recency is
   scheduling-dependent, so capacity >= distinct instances here). The
   latency section below the marker is exempt by contract. *)
let prop_metrics_counts_deterministic =
  Helpers.qcheck ~count:15 "metrics counts section is byte-identical at --jobs 1 and 4"
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 15) small_nat))
    (fun (seed, picks) ->
      with_instance_file (IF.Links W.pigou) @@ fun pigou ->
      with_instance_file (IF.Links W.fig456) @@ fun fig ->
      let rng = Sgr_numerics.Prng.create (seed + 1) in
      let id () = if Sgr_numerics.Prng.bool rng then "a" else "b" in
      let request pick =
        match pick mod 6 with
        | 0 -> Printf.sprintf "solve %s nash" (id ())
        | 1 -> Printf.sprintf "solve %s opt" (id ())
        | 2 -> Printf.sprintf "optop %s" (id ())
        | 3 -> Printf.sprintf "induced %s 0.25" (id ())
        | 4 -> "ping"
        | _ -> Printf.sprintf "solve %s garbage" (id ())
      in
      let lines =
        Printf.sprintf "load a %s" pigou :: Printf.sprintf "load b %s" fig
        :: List.map request picks
      in
      let run jobs =
        Sgr_obs.Obs.reset_counters ();
        Sgr_obs.Hist.reset ();
        let cache = Cache.create ~capacity:4 in
        ignore (Engine.run_batch ~jobs cache lines);
        counts_section (Sgr_serve.Metrics.render cache)
      in
      let s1 = run 1 and s4 = run 4 in
      String.equal s1 s4)

let test_metrics_reply_framing () =
  with_instance_file (IF.Links W.pigou) @@ fun path ->
  (* Counters and histograms are process-global: start from zero so the
     rendered counts are this test's own. *)
  Sgr_obs.Obs.reset_counters ();
  Sgr_obs.Hist.reset ();
  let cache = Cache.create ~capacity:4 in
  let run raw = Option.get (Engine.execute_raw cache raw) in
  ignore (run (Printf.sprintf "load p %s" path));
  ignore (run "solve p nash");
  let reply = run "metrics" in
  match String.split_on_char '\n' reply with
  | header :: body ->
      let expect = Printf.sprintf "ok metrics lines=%d" (List.length body) in
      Alcotest.(check string) "header counts the body lines" expect header;
      check_true "body is non-empty" (body <> []);
      check_true "request counter present"
        (List.exists
           (fun l -> String.equal l "sgr_requests_total{verb=\"solve\"} 1")
           body)
  | [] -> Alcotest.fail "empty metrics reply"

(* ---------------- request-line cap ---------------- *)

let test_session_line_cap () =
  let s = Session.create ~id:9 in
  (* A line of exactly the cap is a request like any other. *)
  feed_str s (String.make Session.max_request_line 'y' ^ "\nping\n");
  Alcotest.(check int) "a cap-long line is accepted" Session.max_request_line
    (String.length (Option.get (Session.next_request s)));
  Session.push_reply s "error parse: unknown verb";
  let chunk = Bytes.make 4096 'x' in
  let fed = ref 0 in
  while Session.wants_read s && !fed < 1 lsl 20 do
    Session.feed s chunk (Bytes.length chunk);
    fed := !fed + Bytes.length chunk;
    check_true "held input stays within the cap plus one chunk"
      (Session.buffered s <= Session.max_request_line + Bytes.length chunk)
  done;
  Alcotest.(check int) "reading stops one chunk past the cap" (Session.max_request_line + 4096)
    !fed;
  Alcotest.(check int) "the refused tail is dropped" 0 (Session.buffered s);
  Alcotest.(check (option string)) "the line before still runs" (Some "ping")
    (Session.next_request s);
  Session.push_reply s "ok pong";
  Alcotest.(check (option string)) "the refusal is no request" None (Session.next_request s);
  let out = Session.pending_out s in
  check_true "the refusal is the last reply"
    (String.ends_with ~suffix:"ok pong\nerror parse: line too long\n" out);
  Session.wrote s (String.length out);
  check_true "finished once drained" (Session.finished s);
  Alcotest.(check string) "close reason" "line too long" (Session.close_reason s)

let test_server_line_cap () =
  with_server @@ fun socket ->
  let other = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close other) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* 1 MiB with no newline, until the server hangs up; halfway to the
     cap, the other session pings. *)
  let chunk = Bytes.make 4096 'x' in
  let sent = ref 0 and open_ = ref true in
  while !open_ && !sent < 1 lsl 20 do
    (match Unix.write fd chunk 0 (Bytes.length chunk) with
    | n -> sent := !sent + n
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> open_ := false);
    if !sent = 8 * 4096 then
      Alcotest.(check (option string)) "a concurrent ping answers" (Some "ok pong")
        (Client.rpc other "ping")
  done;
  let got = Buffer.create 64 and b = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes got b 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  Alcotest.(check string) "exactly the refusal, then a closed connection"
    "error parse: line too long\n" (Buffer.contents got);
  Alcotest.(check (option string)) "the server still answers" (Some "ok pong")
    (Client.rpc other "ping")

(* A [load] whose file declares more nodes than the cap gets a parse
   error naming the line, and the server goes on answering. *)
let test_engine_load_node_cap () =
  let path = Filename.temp_file "sgr_serve_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "network\nnodes 100000000000\nedge 0 1 x\ncommodity 0 1 1\n");
      let cache = Cache.create ~capacity:2 in
      let run raw = Option.get (Engine.execute_raw cache raw) in
      let reply = run (Printf.sprintf "load big %s" path) in
      check_true ("a parse error: " ^ reply)
        (starts_with reply "error parse:"
        && contains reply "line 2: nodes 100000000000 exceeds the limit of 1048576");
      Alcotest.(check string) "still serving" "ok pong" (run "ping"))

(* Links that cannot carry the demand: the solve's failure names the
   demand in an [error solve] reply. *)
let test_engine_overloaded_links () =
  let mm1 = Sgr_latency.Latency.mm1 ~capacity:1.0 in
  with_instance_file (IF.Links (Sgr_links.Links.make [| mm1; mm1 |] ~demand:3.0)) @@ fun path ->
  let cache = Cache.create ~capacity:2 in
  let run raw = Option.get (Engine.execute_raw cache raw) in
  check_true "load ok" (starts_with (run (Printf.sprintf "load m %s" path)) "ok load");
  List.iter
    (fun verb ->
      Alcotest.(check string) verb
        "error solve: Links: the links cannot carry demand 3 at any finite level" (run verb))
    [ "solve m nash"; "solve m opt"; "optop m" ]

(* A [load] whose commodity names a node outside the instance, or the
   same node twice, gets a parse error naming the line. *)
let test_engine_load_bad_commodity () =
  let path = Filename.temp_file "sgr_serve_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cache = Cache.create ~capacity:2 in
      let run raw = Option.get (Engine.execute_raw cache raw) in
      List.iter
        (fun (commodity, expected) ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc ("network\nnodes 3\nedge 0 1 x\nedge 1 2 x\n" ^ commodity ^ "\n"));
          Alcotest.(check string) commodity ("error parse: " ^ path ^ ": " ^ expected)
            (run (Printf.sprintf "load c %s" path)))
        [
          ("commodity 0 5 1", "line 5: commodity endpoint out of range [0, 3)");
          ("commodity -1 2 1", "line 5: commodity endpoint out of range [0, 3)");
          ("commodity 1 1 1", "line 5: commodity source equals destination");
        ];
      Alcotest.(check string) "still serving" "ok pong" (run "ping"))

let suite =
  [
    case "lru: capacity one" test_lru_capacity_one;
    case "lru: eviction order respects touches" test_lru_eviction_order;
    case "lru: hit after evict misses, re-add works" test_lru_hit_after_evict_misses;
    case "lru: same-key add replaces" test_lru_replace_same_key;
    case "lru: zero capacity rejected" test_lru_bad_capacity;
    case "fingerprint: stable across parses, sensitive to coefficients"
      test_fingerprint_stability;
    case "fingerprint: FNV-1a test vectors" test_fingerprint_fnv_vector;
    case "protocol: parse" test_protocol_parse;
    case "protocol: memo keys" test_memo_keys;
    case "protocol: memo keys are the request alone" test_memo_keys_request_alone;
    case "engine: pigou golden replies" test_engine_pigou;
    case "engine: memoization and reload-after-evict" test_engine_memo_and_reload;
    case "engine: pre-emptive deadline cancellation" test_engine_timeout;
    case "engine: a warm batch pass does no solver work" test_engine_warm_pass_no_work;
    case "lineio: many lines from one read" test_lineio_many_lines_one_read;
    case "lineio: chunk boundaries and take_rest" test_lineio_chunk_boundaries;
    case "session: pipelining and partial writes" test_session_pipelining;
    case "session: quit, eof, abort" test_session_quit_eof_abort;
    case "server: two concurrent clients match sequential" test_server_concurrent_clients;
    case "server: four clients over every verb match sequential" test_server_four_clients;
    case "server: pipelined sessions reply in order" test_server_pipelined_sessions;
    case "server: refuses a live socket" test_server_busy;
    case "server: socket appears after listen, alone, and is removed" test_server_socket_dir;
    prop_batch_jobs_deterministic;
    case "metrics: reply framing" test_metrics_reply_framing;
    prop_metrics_counts_deterministic;
    case "session: an overlong request line is refused" test_session_line_cap;
    case "server: a 1 MiB line is refused, other sessions answer" test_server_line_cap;
    case "engine: load past the node cap is a parse error" test_engine_load_node_cap;
    case "engine: links that cannot carry the demand" test_engine_overloaded_links;
    case "engine: load names a bad commodity's line" test_engine_load_bad_commodity;
  ]
