type result = { dist : float array; pred : int array }

module Obs = Sgr_obs.Obs

let c_runs = Obs.counter "dijkstra.runs"
let c_relax = Obs.counter "dijkstra.relaxations"
let c_fallbacks = Obs.counter "dijkstra.goal_fallbacks"
let c_pushes = Obs.counter "dijkstra.heap_pushes"

(* The kernel's priority queue: a 4-ary min-heap of int payloads (node
   ids) in parallel int arrays. It lives in this module so that the dev
   build, whose [-opaque] inlines nothing across modules, inlines both
   sifts into [run_dir].

   Keys are integers: [key_of_float] maps a nonnegative float to its
   bits minus 2^62, plus 1, after [+. 0.0] folds -0.0 into +0.0. The
   bits of nonnegative floats, infinity included, order as the floats
   do, and the image lies in [min_int + 1, 2^62 - 2^52 + 1], so it
   fits an OCaml int, keeps the float order exactly, and leaves
   [min_int] below every image and [max_int] above it. A negative (or
   nan) key maps to [min_int]; only unvalidated negative weights make
   one.

   Every slot from [len] on holds [max_int], and the arrays hold [pad]
   slots past the capacity, so a pop reads all four children of every
   level unchecked and a missing child never wins. Both sifts move a
   hole rather than swapping: the displaced entries shift one level
   each and the moving entry is written once, at its final slot. *)
module Heap = struct
  type t = {
    mutable keys : int array;
    mutable payloads : int array;
    mutable len : int;
    hint : int;
  }

  (* A node's last child is three slots past its first, and a pop reads
     a node's children only while the first is below the length. *)
  let pad = 3

  let create ?(hint = 0) () =
    { keys = Array.make pad max_int; payloads = Array.make pad 0; len = 0; hint = max 0 hint }

  let is_empty h = h.len = 0
  let size h = h.len

  (* A loop rather than [Array.fill], whose C call an empty heap, the
     usual case in [prepare], would pay for nothing. *)
  let clear h =
    let keys = h.keys in
    for i = 0 to h.len - 1 do
      keys.(i) <- max_int
    done;
    h.len <- 0

  let[@inline] key_of_float x =
    if x >= 0.0 then Int64.to_int (Int64.bits_of_float (x +. 0.0)) - max_int else min_int

  (* The inverse on images; [min_int] reads as [neg_infinity]. The sum
     is exact in 64 bits: an image plus [max_int] is the float's bits. *)
  let float_of_key k =
    if k = min_int then Float.neg_infinity
    else Int64.float_of_bits (Int64.add (Int64.of_int k) (Int64.of_int max_int))

  (* Grow the capacity to at least [need] slots, doubling (from empty:
     16, or the hint). The new slots hold [max_int]. *)
  let grow h need =
    let cap = Array.length h.keys - pad in
    let ncap = ref (if cap = 0 then max 16 h.hint else 2 * cap) in
    while !ncap < need do
      ncap := 2 * !ncap
    done;
    let nk = Array.make (!ncap + pad) max_int and np = Array.make (!ncap + pad) 0 in
    Array.blit h.keys 0 nk 0 h.len;
    Array.blit h.payloads 0 np 0 h.len;
    h.keys <- nk;
    h.payloads <- np

  (* Room for [k] more entries. The test is inline, so a heap that has
     the room makes no call. *)
  let[@inline] reserve h k = if h.len + k > Array.length h.keys - pad then grow h (h.len + k)

  (* Sift up from slot [len]: a parent moves down while its key is
     strictly above [key], as a swap-based sift decides. The caller has
     reserved the slot, so the length is below the capacity and every
     slot the sift touches is at most the length. [i] is positive in
     the loop, so [(i - 1) lsr 2] is the parent [(i - 1) / 4]. *)
  let[@inline] sift_up h key payload =
    let keys = h.keys and payloads = h.payloads in
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) lsr 2 in
      let kp = Array.unsafe_get keys parent in
      if kp > key then begin
        Array.unsafe_set keys !i kp;
        Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set payloads !i payload
  [@@lint.allow "unchecked-access"]

  let[@inline] push h key payload =
    reserve h 1;
    sift_up h key payload

  (* The checked read of [keys.(payload)] comes first, so a refused
     payload leaves the heap as it was, and every payload is
     nonnegative. *)
  let insert h keys payload = push h (key_of_float keys.(payload)) payload

  (* Sift the entry [key, payload] down from the root, an empty slot, of
     a heap of [len] entries (len >= 1). At each level the smallest of
     the four children is picked with integer compares and masks, no
     branch: each pair keeps its left child unless the right one is
     strictly smaller, and the left pair wins ties, so the pick is the
     first smallest child, as a swap-based sift scanning the children
     in order finds it. It moves up only when strictly below the entry.
     Every slot from [len] on holds [max_int], and a level is read only
     while its first child is below [len], so every slot read is below
     [len] plus [pad], the arrays' length at most. *)
  let[@inline] sift_down keys (payloads : int array) len key payload =
    let i = ref 0 and c = ref 1 in
    while !c < len do
      let c0 = !c in
      let k0 = Array.unsafe_get keys c0 and k1 = Array.unsafe_get keys (c0 + 1) in
      let k2 = Array.unsafe_get keys (c0 + 2) and k3 = Array.unsafe_get keys (c0 + 3) in
      let b01 = Bool.to_int (k1 < k0) and b23 = Bool.to_int (k3 < k2) in
      let m01 = k0 lxor ((k0 lxor k1) land (-b01)) and j01 = c0 + b01 in
      let m23 = k2 lxor ((k2 lxor k3) land (-b23)) and j23 = c0 + 2 + b23 in
      let mask = -Bool.to_int (m23 < m01) in
      let m = m01 lxor ((m01 lxor m23) land mask) in
      let j = j01 lxor ((j01 lxor j23) land mask) in
      if m < key then begin
        Array.unsafe_set keys !i m;
        Array.unsafe_set payloads !i (Array.unsafe_get payloads j);
        i := j;
        c := (4 * j) + 1
      end
      else c := len (* the entry stays at [i] *)
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set payloads !i payload
  [@@lint.allow "unchecked-access"]

  (* The last entry fills the root. Its old slot, the new length, takes
     [max_int] first. Slot 0 and slot [len - 1] hold entries. *)
  let[@inline] pop h =
    if h.len = 0 then -1
    else begin
      let keys = h.keys and payloads = h.payloads in
      let top = Array.unsafe_get payloads 0 in
      let len = h.len - 1 in
      h.len <- len;
      let key = Array.unsafe_get keys len and payload = Array.unsafe_get payloads len in
      Array.unsafe_set keys len max_int;
      if len > 0 then sift_down keys payloads len key payload;
      top
    end
  [@@lint.allow "unchecked-access"]

  (* Pop the root of a nonempty heap and push [key, payload], in one
     sift down: the new entry takes the root's slot, and the length
     does not change. *)
  let[@inline] replace_root h key payload = sift_down h.keys h.payloads h.len key payload

  let replace h keys payload =
    let key = key_of_float keys.(payload) in
    if h.len = 0 then begin
      push h key payload;
      -1
    end
    else begin
      let top = h.payloads.(0) in
      replace_root h key payload;
      top
    end

  let pop_min h =
    if h.len = 0 then None
    else begin
      let key = float_of_key h.keys.(0) in
      Some (key, pop h)
    end
end

type workspace = {
  mutable size : int;  (* node count the arrays are sized for; 0 = empty *)
  mutable dist : float array;
  mutable pred : int array;
  mutable settled : bool array;
  mutable touched : int array;  (* the nodes the last run labeled, each once *)
  mutable n_touched : int;
  mutable target : bool array;  (* all false between runs *)
  mutable result : result;  (* aliases [dist] and [pred], so a run returns without allocating *)
  heap : Heap.t;
}

let workspace ?(hint = 0) () =
  {
    size = 0;
    dist = [||];
    pred = [||];
    settled = [||];
    touched = [||];
    n_touched = 0;
    target = [||];
    result = { dist = [||]; pred = [||] };
    heap = Heap.create ~hint ();
  }

(* Size the scratch arrays for an [n]-node graph and reset them. Only
   the nodes the previous run labeled hold anything but infinity / -1 /
   false, and the run listed them in [touched], so on the repeated-run
   path (same node count) the reset costs what that run touched, not n,
   and allocates nothing.

   Unchecked: on that path the arrays hold n entries, and the previous
   run, on an n-node graph too, listed each node it labeled once, so
   [i < n_touched <= n] and every listed node is below n. *)
let prepare ws n =
  if ws.size <> n then begin
    ws.dist <- Array.make n Float.infinity;
    ws.pred <- Array.make n (-1);
    ws.settled <- Array.make n false;
    ws.touched <- Array.make n 0;
    ws.target <- Array.make n false;
    ws.result <- { dist = ws.dist; pred = ws.pred };
    ws.size <- n
  end
  else begin
    let dist = ws.dist and pred = ws.pred and settled = ws.settled and touched = ws.touched in
    for i = 0 to ws.n_touched - 1 do
      let v = Array.unsafe_get touched i in
      Array.unsafe_set dist v Float.infinity;
      Array.unsafe_set pred v (-1);
      Array.unsafe_set settled v false
    done
  end;
  ws.n_touched <- 0;
  Heap.clear ws.heap
[@@lint.allow "unchecked-access"]

(* A goal-directed search toward one sink. [potential] is the distance
   to the sink under [lower], capped at [reach] (see [goal_toward]) and scaled
   by (1 - [goal_margin]), so under any weights w >= lower every edge
   keeps a reduced cost w - potential(u) + potential(v) of at least
   goal_margin·lower(e) > 0. [targets] is [Some [| sink |]], built once
   so a run allocates none. *)
type goal = {
  lower : float array;
  potential : float array;
  key_bound : float;
  targets : int array option;
}

(* A plain run is a goal-free one: no potential, no key bound. *)
let plain =
  { lower = [||]; potential = [||]; key_bound = Float.infinity; targets = None }

let goal_margin = 1e-9

(* No pruning: a constant, never written. *)
let no_upper = [| Float.infinity |]

(* How far an upper bound on the sink's distance is inflated before a
   run prunes on it: a relative 4·epsilon_float per node, more than the
   rounding of any key or path sum on an [n]-node graph. Pruning less
   is always safe. *)
let[@inline] slack n = 1.0 +. (float_of_int (n + 2) *. 4.0 *. epsilon_float)

(* Distinct targets not yet settled, marked in the workspace; a full run
   counts -1, which settling never brings to 0. Out-of-range targets are
   rejected before anything is marked. *)
let mark_targets ws targets n =
  match targets with
  | None -> -1
  | Some ts ->
      for i = 0 to Array.length ts - 1 do
        if ts.(i) < 0 || ts.(i) >= n then invalid_arg "Dijkstra.run: target out of range"
      done;
      let pending = ref 0 in
      for i = 0 to Array.length ts - 1 do
        if not ws.target.(ts.(i)) then begin
          ws.target.(ts.(i)) <- true;
          incr pending
        end
      done;
      !pending

let unmark_targets ws = function
  | None -> ()
  | Some ts ->
      for i = 0 to Array.length ts - 1 do
        ws.target.(ts.(i)) <- false
      done

(* The kernel, shared by the forward, reverse and goal-directed runs:
   [off]/[ids] is a CSR adjacency (out- or in-) and [other].(e) the
   endpoint the search moves to along edge [e] (dst forward, src
   reverse). Iterates the flat arrays directly — no list cells or
   closures per settled node, and nothing allocated once the workspace
   fits the graph.

   The heap key is [dist], or [dist + potential] for a goal-directed
   run, pushed as its integer image ([Heap.key_of_float]). Keys then rise strictly along every edge while they stay below
   [goal.key_bound] (see [goal]), so the run settles nodes with the
   plain run's labels; a node whose potential is infinite cannot reach
   the sink and is never pushed. A finite key above the bound makes the
   run give up and return [false].

   Ties: a relaxation that matches [dist(v)] bit for bit, while [v] is
   not yet settled, moves [pred(v)] to the smaller edge id. With
   positive weights every tied in-neighbour of [v] is settled before
   [v] in both modes, so [pred(v)] is the smallest tied edge id whatever
   order the heap pops equal keys in. The settled guard keeps every
   [pred] edge pointing back to a node settled earlier: without it, ties
   across zero-weight edges could close a predecessor cycle.

   With targets, the search stops right after settling the last
   distinct target, before relaxing its edges. Up to that point it has
   done exactly what the full run does, and settled entries never change
   afterwards, so everything it settled reads bit-for-bit as in the full
   tree. The target marks are cleared before returning.

   A node is labeled when its distance first drops below infinity (a
   node that is never labeled keeps pred -1 and is never settled), and
   the run lists it in [touched] right then, so the next [prepare]
   resets exactly the labeled nodes.

   [upper.(0)] prunes: a labeled node whose key exceeds it (inflated by
   [slack]) is not pushed. It is read from an array so that a call
   boxes no float. The key bound is tested first, so a run falls back
   exactly when it would without it. A goal-directed run may pass an
   upper bound on its sink's distance, which no key settled before the
   sink exceeds (see [run]); every other run passes [no_upper].

   The loop reads and writes unchecked. The entry points have checked
   [0 <= origin < n], [weights] (m entries) and the length of a
   potential (n entries); [prepare] sized [dist], [pred], [settled],
   [touched] and [target] for n nodes. The CSR arrays are the graph's, valid by construction and never
   mutated: [off] has n + 1 nondecreasing entries from 0 to m, so [k]
   lies in [0, m); [ids.(k)] is an edge id below m, the length of
   [other]; [other.(e)] is a node below n. Every node the heap holds
   was pushed as [origin] or as such a [v], and the loop reads the
   root's payload, slot 0, only while the heap is not empty. The heap
   has room for a node's out-degree before its edges are relaxed
   ([Heap.reserve]); the first push replaces the root and each later
   one adds one entry, so no push outgrows it. A node enters [touched]
   only when its distance leaves infinity, which happens once per run,
   so [n_touched] stays at most n. *)
let run_dir ?targets ws ~goal ~upper ~off ~ids ~other ~weights ~n ~origin =
  Obs.incr c_runs;
  prepare ws n;
  let upper = upper.(0) *. slack n in
  let dist = ws.dist and pred = ws.pred and settled = ws.settled and heap = ws.heap in
  let touched = ws.touched in
  let target = ws.target and potential = goal.potential in
  let directed = Array.length potential > 0 in
  (* Mutable, so the compiler keeps them unboxed: an immutable [let]
     of either would reload it at every use, infinity through the
     [Float] module block and the bound through the record's boxed
     field. Neither is ever assigned. *)
  let inf = ref Float.infinity and bound = ref goal.key_bound in
  let pending = ref (mark_targets ws targets n) in
  let within = ref true in
  let relaxations = ref 0 and pushes = ref 0 in
  dist.(origin) <- 0.0;
  touched.(0) <- origin;
  ws.n_touched <- 1;
  let k0 = if directed then potential.(origin) else 0.0 in
  if k0 <= !bound then begin
    if k0 <= upper then begin
      Heap.push heap (Heap.key_of_float k0) origin;
      incr pushes
    end
  end
  else if k0 < !inf then within := false;
  (* A node stays at the root while its edges are relaxed: its first
     push takes the root's slot ([Heap.replace_root]), so popping it and
     pushing cost one sift down, and a node that pushes nothing, or a
     stale entry, is popped. Each settled node reserves room for its
     out-degree first, so no push in the relaxation loop grows the heap,
     and its relaxations are counted at once. A run that stops leaves
     its entries to one [Heap.clear] after the loop. *)
  let stop = ref false in
  while (not !stop) && heap.len > 0 do
    let u' = Array.unsafe_get heap.payloads 0 in
    let at_root = ref true in
    (* Lazy deletion: skip stale entries. *)
    if not (Array.unsafe_get settled u') then begin
      Array.unsafe_set settled u' true;
      if Array.unsafe_get target u' then decr pending;
      if !pending = 0 then stop := true
      else begin
        let du = Array.unsafe_get dist u' in
        let lo = Array.unsafe_get off u' and hi = Array.unsafe_get off (u' + 1) in
        relaxations := !relaxations + (hi - lo);
        Heap.reserve heap (hi - lo);
        for k = lo to hi - 1 do
          let e = Array.unsafe_get ids k in
          let v = Array.unsafe_get other e in
          let nd = du +. Array.unsafe_get weights e in
          let dv = Array.unsafe_get dist v in
          if nd < dv then begin
            if dv = !inf then begin
              Array.unsafe_set touched ws.n_touched v;
              ws.n_touched <- ws.n_touched + 1
            end;
            Array.unsafe_set dist v nd;
            Array.unsafe_set pred v e;
            let kv = if directed then nd +. Array.unsafe_get potential v else nd in
            if kv <= !bound then begin
              if kv <= upper then begin
                let key = Heap.key_of_float kv in
                if !at_root then begin
                  Heap.replace_root heap key v;
                  at_root := false
                end
                else Heap.sift_up heap key v;
                incr pushes
              end
            end
            else if kv < !inf then within := false
          end
          else if nd = dv && e < Array.unsafe_get pred v && not (Array.unsafe_get settled v) then
            Array.unsafe_set pred v e
        done;
        if not !within then stop := true
      end
    end;
    if !at_root && not !stop then ignore (Heap.pop heap)
  done;
  if !stop then Heap.clear heap;
  unmark_targets ws targets;
  (* One batched counter update per run keeps the inner loop free of
     atomic traffic while the count stays exact. *)
  Obs.add c_relax !relaxations;
  Obs.add c_pushes !pushes;
  !within
[@@lint.allow "unchecked-access"]

let validate_weights ?goal weights =
  Array.iter
    (fun w ->
      if not (w >= 0.0) then
        invalid_arg "Dijkstra: edge weights must be nonnegative (and not NaN)")
    weights;
  Option.iter
    (fun goal ->
      Array.iteri
        (fun e w ->
          if w < goal.lower.(e) then
            invalid_arg "Dijkstra.run: a weight is below the goal's lower bound")
        weights)
    goal

(* Checked by every entry point before it touches a workspace: the
   kernel indexes [weights] by edge id, and a run that failed half-way
   would leave its target marks set for the workspace's next run. *)
let check_weights name g weights =
  if Array.length weights <> Digraph.num_edges g then
    invalid_arg (name ^ ": weights must hold one entry per edge")

(* Checked by every entry point, with the weights, for each node it is
   given: the kernel reads its arrays unchecked from its origin on. *)
let check_node name what g v =
  let n = Digraph.num_nodes g in
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "%s: %s %d is not a node (the graph has %d)" name what v n)

let forward ?targets ws g ~goal ~upper ~weights ~source =
  run_dir ?targets ws ~goal ~upper
    ~off:(Digraph.out_offsets g) ~ids:(Digraph.out_edge_ids g)
    ~other:(Digraph.edge_targets g) ~weights ~n:(Digraph.num_nodes g) ~origin:source

let reverse ?targets ws g ~weights ~sink =
  run_dir ?targets ws ~goal:plain ~upper:no_upper
    ~off:(Digraph.in_offsets g) ~ids:(Digraph.in_edge_ids g)
    ~other:(Digraph.edge_sources g) ~weights ~n:(Digraph.num_nodes g) ~origin:sink

let run ?(validate = false) ?workspace:ws ?targets ?goal ?upper g ~weights ~source =
  check_weights "Dijkstra.run" g weights;
  check_node "Dijkstra.run" "source" g source;
  (match upper with
  | Some u when Array.length u = 0 -> invalid_arg "Dijkstra.run: ~upper holds no entry"
  | _ -> ());
  if validate then validate_weights ?goal weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  (match goal with
  | None ->
      if Option.is_some upper then invalid_arg "Dijkstra.run: ~upper needs a ~goal";
      ignore (forward ws g ~goal:plain ~upper:no_upper ?targets ~weights ~source)
  | Some goal ->
      if Option.is_some targets then invalid_arg "Dijkstra.run: ~goal already names the target";
      if Array.length goal.potential <> Digraph.num_nodes g then
        invalid_arg "Dijkstra.run: the goal was built for another graph";
      let upper = Option.value upper ~default:no_upper in
      if not (forward ws g ~goal ~upper ?targets:goal.targets ~weights ~source) then begin
        Obs.incr c_fallbacks;
        ignore (forward ws g ~goal:plain ~upper:no_upper ?targets:goal.targets ~weights ~source)
      end);
  ws.result

let run_reverse ?(validate = false) ?workspace:ws g ~weights ~sink =
  check_weights "Dijkstra.run_reverse" g weights;
  check_node "Dijkstra.run_reverse" "sink" g sink;
  if validate then validate_weights weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  ignore (reverse ws g ~weights ~sink);
  ws.result

(* The key bound of goals built on [lower]: one scan, however many
   sinks share it. Along an edge u -> v the two keys differ by the
   reduced cost, at least goal_margin·lower(e), plus the rounding of
   the two keys, of dist(u) + w(e) and of both potentials, each at most
   half an ulp of a key (about epsilon_float/2 of it) — under
   3·epsilon_float·key in all. Below the bound that is at most 3/4 of
   the smallest margin, so the keys rise strictly along every edge, and
   dist(u) + w(e) never rounds back to dist(u). *)
let key_bound g lower =
  let m = Digraph.num_edges g in
  if Array.length lower <> m then invalid_arg "Dijkstra.goal: one lower bound per edge";
  (* A loop, not a fold: a float returned by a closure is boxed. *)
  let min_lower = ref Float.infinity in
  for e = 0 to m - 1 do
    if not (lower.(e) > 0.0) then invalid_arg "Dijkstra.goal: lower bounds must be positive";
    if lower.(e) < !min_lower then min_lower := lower.(e)
  done;
  goal_margin *. !min_lower /. (4.0 *. epsilon_float)

(* The reverse run toward [sink] stops once every node of [sources] is
   settled, at distance [reach] (the largest of theirs). A node it did
   not settle is at least [reach] away, so min(d, reach) is the
   potential: still consistent, since min(·, reach) never widens a gap
   between two nodes, and exact on every node nearer than [reach]. A run
   that never settles some source (one that cannot reach the sink) is a
   full run, and a node it did not settle keeps infinity. *)
let goal_toward ws g ~lower ~key_bound ~sink ~sources =
  let n = Digraph.num_nodes g in
  ignore (reverse ?targets:sources ws g ~weights:lower ~sink);
  let dist = ws.dist and settled = ws.settled in
  let reach =
    match sources with
    | Some srcs when Array.for_all (fun s -> settled.(s)) srcs ->
        Array.fold_left (fun r s -> Float.max r dist.(s)) 0.0 srcs
    | _ -> Float.infinity
  in
  let scale = 1.0 -. goal_margin in
  let potential = Array.make n 0.0 in
  for v = 0 to n - 1 do
    potential.(v) <- scale *. if settled.(v) then dist.(v) else reach
  done;
  { lower; potential; key_bound; targets = Some [| sink |] }

let goal ?workspace:ws g ~lower ~sink =
  check_node "Dijkstra.goal" "sink" g sink;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  goal_toward ws g ~lower ~key_bound:(key_bound g lower) ~sink ~sources:None

let goals ?workspace:ws g ~lower ~sinks ~sources =
  if Array.length sources <> Array.length sinks then
    invalid_arg "Dijkstra.goals: one source set per sink";
  for i = 0 to Array.length sinks - 1 do
    check_node "Dijkstra.goals" "sink" g sinks.(i);
    let srcs = sources.(i) in
    for k = 0 to Array.length srcs - 1 do
      check_node "Dijkstra.goals" "source" g srcs.(k)
    done
  done;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  let key_bound = key_bound g lower in
  Array.mapi
    (fun i sink ->
      (* Per-sink checkpoint: a reverse run may be a full one. *)
      Sgr_obs.Cancel.check ();
      goal_toward ws g ~lower ~key_bound ~sink ~sources:(Some sources.(i)))
    sinks

let shortest_path ?validate ?workspace g ~weights ~src ~dst =
  check_weights "Dijkstra.shortest_path" g weights;
  check_node "Dijkstra.shortest_path" "src" g src;
  check_node "Dijkstra.shortest_path" "dst" g dst;
  let ({ dist; pred } : result) =
    run ?validate ?workspace ~targets:[| dst |] g ~weights ~source:src
  in
  if dist.(dst) = Float.infinity then None
  else begin
    let sources = Digraph.edge_sources g in
    (* A simple path has at most n - 1 edges. A longer chain has closed
       a cycle, which only negative weights can make (a settled node
       relabeled), so it is refused rather than followed. *)
    let longest = Digraph.num_nodes g - 1 in
    let rec walk v acc edges =
      if v = src then acc
      else
        let e = pred.(v) in
        if e < 0 then acc (* unreachable; cannot happen when dist is finite *)
        else if edges = longest then
          invalid_arg
            (Printf.sprintf
               "Dijkstra.shortest_path: the predecessor chain of node %d does not reach node %d \
                within %d edges (negative weights?)"
               dst src longest)
        else walk sources.(e) (e :: acc) (edges + 1)
    in
    Some (walk dst [] 0)
  end

let shortest_edge_subgraph ?(eps = Sgr_numerics.Tolerance.check_eps) ?validate ?workspaces g
    ~weights ~src ~dst =
  check_weights "Dijkstra.shortest_edge_subgraph" g weights;
  check_node "Dijkstra.shortest_edge_subgraph" "src" g src;
  check_node "Dijkstra.shortest_edge_subgraph" "dst" g dst;
  let fwd_ws, bwd_ws =
    match workspaces with Some pair -> pair | None -> (workspace (), workspace ())
  in
  let fwd = run ?validate ~workspace:fwd_ws g ~weights ~source:src in
  let bwd = run_reverse ~workspace:bwd_ws g ~weights ~sink:dst in
  let total = fwd.dist.(dst) in
  let m = Digraph.num_edges g in
  let on_sp = Array.make m false in
  if total < Float.infinity then begin
    let sources = Digraph.edge_sources g and targets = Digraph.edge_targets g in
    for e = 0 to m - 1 do
      let through = fwd.dist.(sources.(e)) +. weights.(e) +. bwd.dist.(targets.(e)) in
      if through < Float.infinity && through <= total +. (eps *. Float.max 1.0 total) then
        on_sp.(e) <- true
    done
  end;
  on_sp
