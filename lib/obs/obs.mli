(** Observability: counters, timed spans and solver-convergence traces.

    Zero-dependency (stdlib + unix clock only) so every layer of the
    library can be instrumented without cycles. Three primitives:

    - {b counters} — named monotonic [int]s ("bisection.calls",
      "dijkstra.relaxations", …) that always accumulate; each is an
      [Atomic.t], so increments from worker domains (parallel sweeps,
      per-commodity pricing) stay exact. Kernels batch their updates
      (one [add] per run) to keep atomic traffic off the innermost
      loops;
    - {b spans} — named, nested wall-clock intervals
      ([span "mop.maxflow" f]); when no sink is installed a span is a
      single branch around [f ()];
    - {b trace points} — per-iteration convergence records
      [(k, gap, objective, step)] emitted by the iterative solvers
      (Frank–Wolfe, MSA, Equilibrate).

    Spans and points flow into a single global {e sink}, an
    [event -> unit] callback that defaults to [None] (no-op): with the
    default sink the solvers skip all trace bookkeeping and their
    results are bit-identical to the uninstrumented library.

    {b Domains.} The sink is single-domain state: only the domain that
    called {!set_sink} emits events. On any other domain {!span} is a
    plain call, {!point} is a no-op and {!enabled} returns [false], so
    parallel runs never race on the sink — worker work simply does not
    appear in traces. Counters are domain-safe and exact everywhere.

    Naming scheme: ["component.operation"], e.g. ["bisection.calls"],
    ["frank_wolfe.solve"], ["mop.maxflow"]. See docs/observability.md. *)

type event =
  | Span_begin of { name : string; ts : float; depth : int }
      (** Span opened at wall-clock time [ts] (seconds), nesting depth
          [depth] (0 = outermost). *)
  | Span_end of { name : string; ts : float; dur : float; depth : int }
      (** Matching close; [dur] is the elapsed wall-clock seconds. *)
  | Point of {
      solver : string;
      k : int;
      gap : float;
      objective : float;
      step : float;
      ts : float;
    }
      (** One solver iteration: iteration number [k], convergence gap,
          objective value before the step, and the step size taken
          (0 on the terminating iteration). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] returns the counter registered under [name],
    creating it at zero on first use. Idempotent: the same name always
    yields the same counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** Snapshot of every registered counter, sorted by name. *)

val reset_counters : unit -> unit
(** Zero every registered counter (they stay registered). *)

(** {1 Sink, spans and trace points} *)

val set_sink : (event -> unit) option -> unit
(** Install ([Some f]) or remove ([None], the default) the global
    event sink. *)

val enabled : unit -> bool
(** [true] iff a sink is installed. Solvers consult this before doing
    per-iteration trace work (e.g. evaluating the objective). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when a sink is installed it brackets the
    call with [Span_begin]/[Span_end] events (emitted even if [f]
    raises) and tracks nesting depth. With no sink it is just [f ()]. *)

val point :
  solver:string -> k:int -> gap:float -> objective:float -> step:float -> unit
(** Emit one convergence-trace point (no-op without a sink). *)

(** {1 Clock} *)

val now : unit -> float
(** Current time in seconds from the active clock. *)

val default_clock : unit -> float
(** The wall clock ([Unix.gettimeofday]). *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (tests use a deterministic tick); restore with
    [set_clock default_clock]. *)

(** {1 Ready-made sinks} *)

(** Records every event in order; for trace export and tests. *)
module Recorder : sig
  type t

  val create : unit -> t
  val install : t -> unit  (** [set_sink] to this recorder. *)

  val events : t -> event list  (** In emission order. *)

  val clear : t -> unit
end
