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
val insert : t -> float -> int -> unit

val pop : t -> int
(** Removes the payload with the smallest priority and returns it, or
    [-1] when the heap is empty. Allocation-free — the hot-path variant
    of {!pop_min}. Payloads inserted by well-behaved callers are ids,
    hence nonnegative, so [-1] is unambiguous.

    Equal priorities pop in an order fixed by the insert/pop history
    alone: that of a textbook swap-based binary heap. Dijkstra's
    tie-breaking, and with it every all-or-nothing flow, depends on
    it. *)

val pop_min : t -> (float * int) option
(** Like {!pop}, also reporting the priority. Allocates the returned
    option. *)

val clear : t -> unit
(** Empty the heap, keeping its capacity, so the next fill does not
    reallocate. Old payload slots are not erased (they are overwritten
    by later inserts), so clearing does not release payload memory. *)
