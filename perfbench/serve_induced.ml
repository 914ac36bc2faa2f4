(* serve-induced: [induced g ALPHA] on one grid over the socket of an
   `sgr serve --jobs 1` child, with a never-repeating α, so every
   request is a memo miss plus a memo store. Column generation (the
   optimum) and LLF with its induced equilibrium do the work; the
   serving layer is a thin shell whose memo write path grows. One
   lockstep connection. *)

module Engine = Sgr_serve.Engine
module IF = Sgr_io.Instance_file
module Net = Sgr_network.Network
open Workload

type session = {
  srv : Child.t;
  conn : Child.Client.t;
  seed : int;
  references : string array;  (** In-process replies to the first requests. *)
  memo0 : int * int;
  mutable traced : float list;  (** The α of every request sent with spans on. *)
}

let name = "serve-induced"

(* 3600 requests in a 30 s run; p99 leaves 36 samples above it and
   p99.9 only 3. *)
let tail = Stats.P99
let ops_per_s = 120.0
let warmup = 20
let setup_reps = 7
let trace_ops = 100
let checked = 40
let log = Child.work_dir ^ "/serve-induced.log"
let request k alphas = "induced g " ^ Inputs.alpha_str alphas.(k)

let setup ~seed =
  let srv = Child.start ~log ~files:[ ("g.inst", Inputs.grid_text ()) ] in
  match
    let conn = (Child.connections srv 1).(0) in
    let load = "load g " ^ Child.path srv "g.inst" in
    let r = Child.rpc conn load in
    if not (String.starts_with ~prefix:"ok load" r) then Child.fail "load g: %s" r;
    (* The reference: the engine in-process, on a fresh cache. *)
    let cache = Sgr_serve.Cache.create ~capacity:4 in
    ignore (Engine.execute_raw cache load);
    let alphas = Inputs.alphas ~seed checked in
    let references =
      Array.init checked (fun k -> Option.get (Engine.execute_raw cache (request k alphas)))
    in
    { srv; conn; seed; references; memo0 = Child.memo_counts conn; traced = [] }
  with
  | s -> s
  | exception e ->
      Child.stop srv;
      raise e

let run s ~first ~n =
  let alphas = Inputs.alphas ~seed:s.seed (first + n) in
  timed_loop ~first ~n
    ~work:(fun k ->
      if !Spans.enabled then s.traced <- alphas.(k) :: s.traced;
      Spans.span "serve.rpc" (fun () -> Child.rpc s.conn (request k alphas)))
    ~check:(fun k reply ->
      if k < checked then String.equal reply s.references.(k)
      else String.starts_with ~prefix:"ok induced id=g alpha=" reply)

(* No memo hit since set-up: every α was new. *)
let final_check s =
  let hits, _ = Child.memo_counts s.conn in
  (1, if hits = fst s.memo0 then 0 else 1)

let peak_rss_mb s = Child.peak_rss_mb s.srv
let close s = Child.stop s.srv

let layers s ~traced_p50_ms =
  let hits, misses = Child.memo_counts s.conn in
  let miss_ratio =
    let dh = hits - fst s.memo0 and dm = misses - snd s.memo0 in
    float_of_int dm /. float_of_int (dh + dm)
  in
  let net =
    match IF.parse (Inputs.grid_text ()) with
    | Ok (IF.Network net) -> net
    | _ -> Child.fail "grid instance does not parse"
  in
  let alphas = Inputs.alphas ~seed:s.seed 10 in
  let optimum_ms =
    probe "network.optimum" ~reps:11 (fun () ->
        Sgr_network.Equilibrate.solve Sgr_network.Objective.System_optimum net)
  in
  let (outcomes, alloc), counts =
    counter_deltas [ "column_gen.pricing_rounds"; "column_gen.columns" ] (fun () ->
        alloc_mb (fun () ->
            Array.map
              (fun alpha ->
                ignore (Spans.new_op ());
                Spans.span "core.llf" (fun () -> Stackelberg.Net_strategies.llf net ~alpha))
              alphas))
  in
  let per_llf x = x /. float_of_int (Array.length alphas) in
  Array.iteri
    (fun i (o : Stackelberg.Net_strategies.outcome) ->
      let follower_demands =
        Array.map (fun c -> (1.0 -. alphas.(i)) *. c.Net.demand) net.Net.commodities
      in
      ignore (Spans.new_op ());
      ignore
        (Spans.span "core.induced" (fun () ->
             Stackelberg.Induced.equilibrium net ~leader_edge_flow:o.leader_edge_flow
               ~follower_demands)))
    outcomes;
  (* A cold key: a fresh in-process cache per request, on the α values
     of the traced requests, so [serve.overhead_ms] compares like with
     like (LLF's cost varies by ±15% with α). *)
  let path = Child.path s.srv "g.inst" in
  Array.iter
    (fun alpha ->
      let cache = Sgr_serve.Cache.create ~capacity:4 in
      ignore (Engine.execute_raw cache ("load g " ^ path));
      let line =
        match Sgr_serve.Protocol.parse_line ("induced g " ^ Inputs.alpha_str alpha) with
        | Ok (Some l) -> l
        | _ -> Child.fail "unparsable induced request"
      in
      ignore (Spans.new_op ());
      ignore (Spans.span "serve.execute_cold" (fun () -> Engine.execute cache line)))
    (Array.of_list s.traced);
  let execute_ms = median_span "serve.execute_cold" in
  ( Report.
      [
        metric "network.optimum_ms" "ms" optimum_ms;
        metric "core.llf_ms" "ms" (median_span "core.llf");
        metric "core.induced_ms" "ms" (median_span "core.induced");
        metric "network.pricing_rounds" "count" (per_llf (float_of_int (List.nth counts 0)));
        metric "network.columns" "count" (per_llf (float_of_int (List.nth counts 1)));
        metric "core.llf_alloc_mb_per_op" "MB" (per_llf alloc);
        metric "serve.execute_ms" "ms" execute_ms;
        metric "serve.overhead_ms" "ms" (traced_p50_ms -. execute_ms);
        metric "serve.memo_miss_ratio" "ratio" miss_ratio;
      ],
    no_par )
