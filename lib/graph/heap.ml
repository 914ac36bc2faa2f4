(* Parallel-array layout: priorities live in an unboxed float array and
   payloads in an int array, so [insert] writes two slots and allocates
   nothing once capacity is reached. Payloads are ints (node or edge
   ids) on purpose: a polymorphic payload array would route every store
   through the write barrier, which is measurably slower once a
   long-lived heap's arrays are promoted to the major heap — exactly
   the reusable-workspace case. *)

type t = {
  mutable prios : float array;
  mutable payloads : int array;
  mutable len : int;
  hint : int;
}

let create ?(hint = 0) () = { prios = [||]; payloads = [||]; len = 0; hint = max 0 hint }
let is_empty h = h.len = 0
let size h = h.len
let clear h = h.len <- 0

let grow h =
  let cap = Array.length h.prios in
  if h.len = cap then begin
    let ncap = if cap = 0 then max 16 h.hint else 2 * cap in
    let np = Array.make ncap 0.0 and nd = Array.make ncap 0 in
    Array.blit h.prios 0 np 0 h.len;
    Array.blit h.payloads 0 nd 0 h.len;
    h.prios <- np;
    h.payloads <- nd
  end

(* Both sifts move a hole rather than swapping: the displaced entries
   shift one level each and the moving entry is written once, at its
   final slot. The comparisons are exactly those of a swap-based sift,
   so the heap ends in the same layout and pops ties in the same order. *)
let insert h prio payload =
  grow h;
  let prios = h.prios and payloads = h.payloads in
  let i = ref h.len in
  h.len <- h.len + 1;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prios.(parent) in
    if pp > prio then begin
      prios.(!i) <- pp;
      payloads.(!i) <- payloads.(parent);
      i := parent
    end
    else continue := false
  done;
  prios.(!i) <- prio;
  payloads.(!i) <- payload

let pop h =
  if h.len = 0 then -1
  else begin
    let prios = h.prios and payloads = h.payloads in
    let top_payload = payloads.(0) in
    let len = h.len - 1 in
    h.len <- len;
    if len > 0 then begin
      (* Sift the last entry down from the root. *)
      let prio = prios.(len) and payload = payloads.(len) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i and sp = ref prio in
        if l < len && prios.(l) < !sp then begin
          smallest := l;
          sp := prios.(l)
        end;
        if r < len && prios.(r) < !sp then begin
          smallest := r;
          sp := prios.(r)
        end;
        if !smallest <> !i then begin
          prios.(!i) <- !sp;
          payloads.(!i) <- payloads.(!smallest);
          i := !smallest
        end
        else continue := false
      done;
      prios.(!i) <- prio;
      payloads.(!i) <- payload
    end;
    top_payload
  end

let pop_min h =
  if h.len = 0 then None
  else begin
    let prio = h.prios.(0) in
    Some (prio, pop h)
  end
