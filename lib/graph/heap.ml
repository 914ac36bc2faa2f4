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

(* Double the capacity of a full heap (from empty: 16, or the hint). *)
let grow h =
  let cap = Array.length h.prios in
  let ncap = if cap = 0 then max 16 h.hint else 2 * cap in
  let np = Array.make ncap 0.0 and nd = Array.make ncap 0 in
  Array.blit h.prios 0 np 0 h.len;
  Array.blit h.payloads 0 nd 0 h.len;
  h.prios <- np;
  h.payloads <- nd

(* Both sifts move a hole rather than swapping: the displaced entries
   shift one level each and the moving entry is written once, at its
   final slot. Each makes the decisions of a swap-based sift, so the
   heap ends in the same layout and pops ties in the same order.

   The priority is read from the caller's array rather than passed as a
   float: a float argument to another module's function is boxed unless
   the compiler can inline across modules, which dev builds ([-opaque])
   never do. That read stays checked: [keys] and [payload] are the
   caller's, and an index outside [keys] is refused before the heap
   changes. The sifts read and write unchecked: [prios] and [payloads]
   always have the same capacity, and every slot they touch is below
   the length, which is below the capacity.

   The capacity test is inline, so a push that fits (all but a few)
   makes no call, and a parent is found by a shift: [i] is positive,
   so [(i - 1) lsr 1] is [(i - 1) / 2] without the rounding fix-up a
   signed division needs. *)
let insert h keys payload =
  let prio = keys.(payload) in
  if h.len = Array.length h.prios then grow h;
  let prios = h.prios and payloads = h.payloads in
  (* The length is now below the capacity: slot [len] is free, and
     every parent is below it. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let pp = Array.unsafe_get prios parent in
    if pp > prio then begin
      Array.unsafe_set prios !i pp;
      Array.unsafe_set payloads !i (Array.unsafe_get payloads parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prios !i prio;
  Array.unsafe_set payloads !i payload
[@@lint.allow "unchecked-access"]

let pop h =
  if h.len = 0 then -1
  else begin
    let prios = h.prios and payloads = h.payloads in
    let top_payload = Array.unsafe_get payloads 0 in
    let len = h.len - 1 in
    h.len <- len;
    if len > 0 then begin
      (* Sift the last entry down from the root. The smaller child is
         picked without a branch (a float comparison read as an int
         compiles to a compare-and-mask); the right child wins only when
         strictly smaller, then it moves up only when strictly smaller
         than the entry. That is the swap sift's choice, ties included:
         it keeps the left child over an equal right one and the entry
         over an equal child. While the entry moves, its old slot [len],
         just past the heap, still holds its key: read as a last
         parent's missing right child, it wins only over a left child
         larger than the entry, and then does not move up, so the entry
         stays, as it should. Every slot read is at most [len], the old
         length minus one, so below the capacity. *)
      let prio = Array.unsafe_get prios len and payload = Array.unsafe_get payloads len in
      let i = ref 0 in
      let l = ref 1 in
      while !l < len do
        let c = !l + Bool.to_int (Array.unsafe_get prios (!l + 1) < Array.unsafe_get prios !l) in
        let pc = Array.unsafe_get prios c in
        if pc < prio then begin
          Array.unsafe_set prios !i pc;
          Array.unsafe_set payloads !i (Array.unsafe_get payloads c);
          i := c;
          l := (2 * c) + 1
        end
        else l := len (* the entry stays at [i] *)
      done;
      Array.unsafe_set prios !i prio;
      Array.unsafe_set payloads !i payload
    end;
    top_payload
  end
[@@lint.allow "unchecked-access"]

let pop_min h =
  if h.len = 0 then None
  else begin
    let prio = h.prios.(0) in
    Some (prio, pop h)
  end
