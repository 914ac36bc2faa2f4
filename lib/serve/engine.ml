module P = Protocol
module IF = Sgr_io.Instance_file
module Links = Sgr_links.Links
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module Obs = Sgr_obs.Obs
module Hist = Sgr_obs.Hist

let fs = P.float_str

(* Per-verb latency histograms, interned once so the request hot path
   never touches the registry mutex; recording goes through per-domain
   shards ([Hist.observe]) and is safe from pool workers. *)
let request_hists =
  List.map
    (fun kind -> (kind, Hist.histogram ("serve.request_seconds." ^ kind)))
    [ "load"; "solve"; "assign"; "optop"; "mop"; "induced"; "sweep"; "stats"; "metrics";
      "ping"; "quit" ]

let request_hist kind =
  match List.assoc_opt kind request_hists with
  | Some h -> h
  | None -> Hist.histogram ("serve.request_seconds." ^ kind)

let h_batch_wait = Hist.histogram "serve.batch.wait_seconds"
let h_batch_compute = Hist.histogram "serve.batch.compute_seconds"

(* A fully-formed error reply escaping from the middle of a compute. *)
exception Reply of string

let wrong_kind what needs = raise (Reply (P.error_reply `Solve (what ^ " needs a " ^ needs)))

let method_str = function
  | Stackelberg.Alpha_sweep.Exact_threshold -> "threshold"
  | Stackelberg.Alpha_sweep.Linear_exact -> "thm2.4"
  | Stackelberg.Alpha_sweep.Grid_search -> "grid"
  | Stackelberg.Alpha_sweep.Heuristic_upper_bound -> "heuristic"

(* The id-independent reply payload: this is what the memo stores, so an
   instance reached under two ids shares one cache line. Must stay a
   deterministic function of (instance, request, engine) — no cache
   state, no clocks, no job count. *)
let payload (entry : Cache.entry) (req : P.request) =
  match (req, entry.Cache.instance) with
  | P.Solve { obj; _ }, inst ->
      let name = match obj with `Nash -> "nash" | `Opt -> "opt" in
      let cost =
        match inst with
        | IF.Links t ->
            let sol = match obj with `Nash -> Links.nash t | `Opt -> Links.opt t in
            Links.cost t sol.Links.assignment
        | IF.Network net ->
            let o = match obj with `Nash -> Obj.Wardrop | `Opt -> Obj.System_optimum in
            Net.cost net (Eq.solve o net).Eq.edge_flow
      in
      Printf.sprintf "obj=%s cost=%s" name (fs cost)
  | P.Assign { obj; method_; _ }, IF.Network net ->
      let o = match obj with `Nash -> Obj.Wardrop | `Opt -> Obj.System_optimum in
      let m =
        match method_ with
        | `Fw -> Sgr_assign.Solver.Frank_wolfe
        | `Msa -> Sgr_assign.Solver.Msa
      in
      (* Fixed tolerance so the reply is a deterministic function of
         (instance, request) and can be memoized under [memo_key]; runs
         sequentially inside a batch group (jobs=1), identical bytes to
         a parallel run by the solver's determinism contract. *)
      let sol = Sgr_assign.Solver.solve ~tol:1e-4 ~method_:m ~jobs:1 o net in
      Printf.sprintf "obj=%s method=%s cost=%s gap=%s iterations=%d"
        (match obj with `Nash -> "nash" | `Opt -> "opt")
        (Sgr_assign.Solver.method_name m)
        (fs (Net.cost net sol.Sgr_assign.Solver.edge_flow))
        (fs sol.relative_gap) sol.iterations
  | P.Assign _, IF.Links _ -> wrong_kind "assign" "network instance"
  | P.Optop _, IF.Links t ->
      let r = Stackelberg.Optop.run t in
      Printf.sprintf "beta=%s nash_cost=%s opt_cost=%s induced_cost=%s" (fs r.Stackelberg.Optop.beta)
        (fs r.nash_cost) (fs r.optimum_cost) (fs r.induced_cost)
  | P.Optop _, IF.Network _ -> wrong_kind "optop" "parallel-links instance"
  | P.Mop _, IF.Network net ->
      let r = Stackelberg.Mop.run net in
      Printf.sprintf "beta=%s beta_weak=%s nash_cost=%s opt_cost=%s induced_cost=%s"
        (fs r.Stackelberg.Mop.beta) (fs r.beta_weak) (fs r.nash_cost) (fs r.opt_cost)
        (fs r.induced.Stackelberg.Induced.cost)
  | P.Mop _, IF.Links _ -> wrong_kind "mop" "network instance"
  | P.Induced { alpha; _ }, IF.Links t ->
      let o = Stackelberg.Strategies.llf t ~optimum:(Links.opt t).assignment ~alpha in
      Printf.sprintf "alpha=%s cost=%s ratio=%s" (fs alpha)
        (fs o.Stackelberg.Strategies.induced_cost) (fs o.ratio_to_opt)
  | P.Induced { alpha; _ }, IF.Network net ->
      let o = Stackelberg.Net_strategies.llf net ~alpha in
      Printf.sprintf "alpha=%s cost=%s ratio=%s" (fs alpha)
        (fs o.Stackelberg.Net_strategies.induced.Stackelberg.Induced.cost) (fs o.ratio_to_opt)
  | P.Sweep_point { alpha; _ }, IF.Links t ->
      let p = Stackelberg.Alpha_sweep.at t ~alpha in
      Printf.sprintf "alpha=%s ratio=%s method=%s" (fs p.Stackelberg.Alpha_sweep.alpha)
        (fs p.ratio) (method_str p.method_used)
  | P.Sweep_range { lo; hi; samples; _ }, IF.Links t ->
      (* Runs inside a pool task in batch mode, where the nested
         Pool.map falls back to sequential — same bytes either way. *)
      let c = Stackelberg.Alpha_sweep.range t ~lo ~hi ~samples in
      let pts =
        List.map
          (fun (p : Stackelberg.Alpha_sweep.point) ->
            Printf.sprintf "%s:%s" (fs p.alpha) (fs p.ratio))
          c.Stackelberg.Alpha_sweep.points
      in
      Printf.sprintf "beta=%s n=%d points=%s" (fs c.beta) samples (String.concat "," pts)
  | (P.Sweep_point _ | P.Sweep_range _), IF.Network _ ->
      wrong_kind "sweep" "parallel-links instance"
  | (P.Load _ | P.Stats | P.Metrics | P.Ping | P.Quit), _ ->
      (* Routed in [dispatch]; no memoized payload exists for these. *)
      raise (Reply (P.error_reply `Parse "internal: request has no payload"))

let cache_error = function
  | Cache.Io m -> P.error_reply `Io m
  | Cache.Parse m -> P.error_reply `Parse m
  | Cache.Unknown_id id ->
      P.error_reply `Parse (Printf.sprintf "unknown instance id %S (load it first)" id)

let dispatch cache req =
  match req with
  | P.Ping -> "ok pong"
  | P.Quit -> "ok bye"
  | P.Stats ->
      let s = Cache.stats cache in
      Printf.sprintf
        "ok stats entries=%d capacity=%d hits=%d misses=%d evictions=%d memo_hits=%d \
         memo_misses=%d memo_hit_rate=%s occupancy=%s"
        s.Cache.entries s.capacity s.hits s.misses s.evictions s.memo_hits s.memo_misses
        (fs s.memo_hit_rate) (fs s.occupancy)
  | P.Metrics -> Metrics.reply cache
  | P.Load { id; path } -> (
      match Cache.load cache ~id ~path with
      | Error e -> cache_error e
      | Ok (entry, hit) ->
          Printf.sprintf "ok load id=%s kind=%s fp=%s cache=%s" id
            (match entry.Cache.instance with IF.Links _ -> "links" | IF.Network _ -> "network")
            entry.Cache.fingerprint
            (match hit with `Hit -> "hit" | `Miss -> "miss"))
  | req -> (
      match (P.instance_id req, P.memo_key req) with
      | Some id, Some key -> (
          match Cache.resolve cache ~id with
          | Error e -> cache_error e
          | Ok entry ->
              let p = Cache.memo cache entry ~key ~compute:(fun () -> payload entry req) in
              Printf.sprintf "ok %s id=%s %s" (P.request_kind req) id p)
      | _ -> P.error_reply `Parse "internal: unroutable request")

let is_error reply = String.length reply >= 5 && String.equal (String.sub reply 0 5) "error"

let execute cache (line : P.line) =
  let kind = P.request_kind line.P.request in
  let t0 = Obs.now () in
  (* Distinguishes a pre-emptive cancellation (already replied and
     counted as a timeout) from an overrun the checkpoints missed,
     which the post-hoc fallback below still catches. *)
  let pre_empted = ref false in
  let reply =
    (* The loop must survive anything a solver throws; the catch-all is
       the documented containment boundary, not control flow. *)
    try
      match line.P.deadline_ms with
      | Some ms ->
          (* Pre-emptive enforcement: the solver inner loops checkpoint
             against this per-domain deadline and bail mid-compute. The
             exception propagates through [Cache.memo] before anything
             is stored, so a cancelled result is never memoized. *)
          Sgr_obs.Cancel.with_deadline
            ~seconds:(float_of_int ms /. 1000.)
            (fun () -> dispatch cache line.P.request)
      | None -> dispatch cache line.P.request
    with
    | Sgr_obs.Cancel.Deadline_exceeded ->
        pre_empted := true;
        Obs.incr (Obs.counter "serve.timeouts");
        let ms = match line.P.deadline_ms with Some ms -> ms | None -> 0 in
        P.error_reply `Timeout
          (Printf.sprintf "request cancelled at its %dms deadline (no result memoized)" ms)
    | Reply r -> r
    | Invalid_argument m | (Failure m [@lint.allow "no-untyped-failure"]) ->
        P.error_reply `Solve m
    | exn -> P.error_reply `Solve (Printexc.to_string exn)
  in
  let elapsed_s = Obs.now () -. t0 in
  let elapsed_us = int_of_float (1e6 *. elapsed_s) in
  Obs.incr (Obs.counter ("serve.requests." ^ kind));
  Obs.add (Obs.counter ("serve.request_us." ^ kind)) elapsed_us;
  Hist.observe (request_hist kind) elapsed_s;
  let reply =
    (* Post-hoc fallback for work the checkpoints cannot reach (e.g. a
       sweep fanned over pool workers, or a request that finished just
       past the line without hitting a checkpoint): the computed result
       stays memoized, only the reply is replaced. *)
    match line.P.deadline_ms with
    | Some ms when (not !pre_empted) && elapsed_us > ms * 1000 ->
        Obs.incr (Obs.counter "serve.timeouts");
        P.error_reply `Timeout
          (Printf.sprintf "request exceeded its %dms deadline (result cached for retry)" ms)
    | _ -> reply
  in
  if is_error reply then Obs.incr (Obs.counter "serve.errors");
  reply

let execute_raw cache raw =
  match P.parse_line raw with
  | Ok None -> None
  | Ok (Some line) -> Some (execute cache line)
  | Error m -> Some (P.error_reply `Parse m)

type item = Skip | Bad of string | Req of P.line

(* Batch scheduling: requests group by instance id (id-less requests are
   their own singleton groups); groups fan across the pool while each
   group stays sequential in input order, and replies scatter back by
   line index — output bytes are independent of the job count. [stats]
   and [metrics] are barriers (their counters reflect all preceding
   requests); [quit] flushes and stops the batch. *)
let run_batch ?jobs cache raw_lines =
  Obs.span "serve.batch" @@ fun () ->
  let items =
    Array.of_list
      (List.map
         (fun raw ->
           match P.parse_line raw with
           | Ok None -> Skip
           | Ok (Some l) -> Req l
           | Error m -> Bad m)
         raw_lines)
  in
  let n = Array.length items in
  let replies = Array.make n None in
  Obs.add (Obs.counter "serve.batch.lines") n;
  let pending = ref [] in
  let flush () =
    let work = List.rev !pending in
    pending := [];
    if work <> [] then begin
      let order = ref [] and tbl = Hashtbl.create 8 in
      List.iter
        (fun ((idx, line) as task) ->
          let key =
            match P.instance_id line.P.request with
            | Some id -> "i:" ^ id
            | None -> Printf.sprintf "l:%d" idx
          in
          match Hashtbl.find_opt tbl key with
          | None ->
              Hashtbl.add tbl key (ref [ task ]);
              order := key :: !order
          | Some r -> r := task :: !r)
        work;
      let groups =
        Array.of_list (List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order)
      in
      Obs.add (Obs.counter "serve.batch.groups") (Array.length groups);
      let t_flush = Obs.now () in
      let results =
        Sgr_par.Pool.map ?jobs
          (fun group ->
            List.map
              (fun (idx, line) ->
                (* Queue wait = time from the flush until a worker picks
                   the request up; compute = the execute itself. *)
                let t_start = Obs.now () in
                Hist.observe h_batch_wait (t_start -. t_flush);
                let r = execute cache line in
                Hist.observe h_batch_compute (Obs.now () -. t_start);
                (idx, r))
              group)
          groups
      in
      Array.iter (List.iter (fun (idx, r) -> replies.(idx) <- Some r)) results
    end
  in
  (try
     Array.iteri
       (fun idx item ->
         match item with
         | Skip -> ()
         | Bad m -> replies.(idx) <- Some (P.error_reply `Parse m)
         | Req ({ request = P.Stats | P.Metrics; _ } as l) ->
             (* Both are barriers: their counters must reflect every
                preceding request, independent of the job count. *)
             flush ();
             replies.(idx) <- Some (execute cache l)
         | Req ({ request = P.Quit; _ } as l) ->
             flush ();
             replies.(idx) <- Some (execute cache l);
             raise Exit
         | Req l -> pending := (idx, l) :: !pending)
       items
   with Exit -> ());
  flush ();
  List.filter_map Fun.id (Array.to_list replies)
