(** Minimal binary min-heap of [(priority, int payload)] pairs for
    Dijkstra.

    Stale entries are handled by the caller (lazy deletion), so only
    [insert], [pop]/[pop_min] and [clear] are needed. Priorities and
    payloads are stored in parallel unboxed arrays ([float array] /
    [int array]): inserting allocates only when the heap grows, a
    cleared heap refills allocation-free, and no store goes through the
    GC write barrier (payloads are deliberately monomorphic ints — node
    or edge ids — for that reason). *)

type t

val create : ?hint:int -> unit -> t
(** Fresh empty heap. [hint] sizes the first capacity allocation (the
    heap still grows past it on demand). *)

val is_empty : t -> bool
val size : t -> int
val insert : t -> float array -> int -> unit
(** [insert h keys v] pushes payload [v] at priority [keys.(v)], read
    once, at the call: later writes to [keys] do not move the entry.
    Dijkstra passes its distance array (or, goal-directed, its key
    array), so no priority is ever boxed on the way in. The sifts read
    and write the heap's own arrays without bounds checks; the read of
    [keys.(v)] is the one checked access.
    @raise Invalid_argument when [v] is not an index of [keys] (a
    negative [v] included), before the heap changes: every payload in
    the heap is therefore nonnegative. *)

val pop : t -> int
(** Removes the payload with the smallest priority and returns it, or
    [-1] when the heap is empty. Allocation-free — the hot-path variant
    of {!pop_min}. Payloads inserted by well-behaved callers are ids,
    hence nonnegative, so [-1] is unambiguous.

    The sift picks the smaller child without a branch and then compares
    it once with the entry it moves down, deciding as a textbook
    swap-based binary heap does, ties included. So equal priorities pop
    in an order fixed by the insert/pop history alone: that of the
    swap-based heap. No flow depends on it: Dijkstra breaks distance
    ties by edge id (see {!Dijkstra.run}), so with positive weights the
    shortest-path trees, and every all-or-nothing flow read from them,
    are functions of the graph and the weights alone. *)

val pop_min : t -> (float * int) option
(** Like {!pop}, also reporting the priority. Allocates the returned
    option. *)

val clear : t -> unit
(** Empty the heap, keeping its capacity, so the next fill does not
    reallocate. Old payload slots are not erased (they are overwritten
    by later inserts), so clearing does not release payload memory. *)
