(** The a-posteriori anarchy cost as a function of the Leader's share.

    Expression (2) of the paper attaches to every Stackelberg scheduling
    instance [(M, r, α)] the factor [(M,r,α)] — the best ratio
    [C(S+T)/C(O)] any Leader controlling [α·r] can force. This module
    traces that curve for parallel-links instances:

    - for [α >= β_M] the value is exactly 1 (Corollary 2.2);
    - for [α < β_M] the value is approximated from below the hardness:
      by Theorem 2.4's exact solver when the instance has common-slope
      linear latencies, by grid search on small instances otherwise, and
      by the best of LLF/SCALE as a cheap upper bound in general.

    The resulting series is what a plot of "price paid vs control owned"
    would show — the figure-style artifact for the paper's Expression (2)
    discussion. *)

type method_used = Exact_threshold | Linear_exact | Grid_search | Heuristic_upper_bound

type point = {
  alpha : float;
  ratio : float;  (** Best known [C(S+T)/C(O)] at this [α]. *)
  method_used : method_used;
}

type curve = {
  beta : float;  (** [β_M] — where the curve hits 1 exactly. *)
  points : point list;  (** Sampled in increasing [α]. *)
}

val ratio_of : opt_cost:float -> float -> float
(** [ratio_of ~opt_cost cost] is [cost /. opt_cost], with the degenerate
    zero-optimum case made explicit: [1.0] when both costs are (near)
    zero, [infinity] when [opt_cost] is zero but [cost] is positive —
    the Leader pays something where paying nothing was possible. *)

val max_samples : int
(** The most samples {!range}, {!run} and [Beta_profile.run] take
    (1001, a 0.001 grid on [[0, 1]]); the CLI's [--samples] and the
    serve protocol's [sweep ID LO HI N] share it. *)

val at : ?grid_resolution:int -> Sgr_links.Links.t -> alpha:float -> point
(** One point of the curve, computed exactly as {!run} would compute the
    sample at this [alpha] (so a served point query and a sweep sample
    agree byte for byte): both run the same point code on OpTop's result
    and, on the heuristic's instances, on LLF's order prepared from its
    optimum. Runs OpTop and that preparation once per call; use {!range}
    to amortize them over many points.
    @raise Invalid_argument unless [0 <= alpha <= 1]. *)

val range :
  ?jobs:int -> ?grid_resolution:int -> Sgr_links.Links.t ->
  lo:float -> hi:float -> samples:int -> curve
(** [samples] evenly spaced values of [α] in [[lo, hi]] (endpoints
    included). {!run} is [range ~lo:0.0 ~hi:1.0].
    @raise Invalid_argument unless [0 <= lo <= hi <= 1] and
    [2 <= samples <= max_samples]. *)

val run : ?jobs:int -> ?samples:int -> ?grid_resolution:int -> Sgr_links.Links.t -> curve
(** [run t] samples [samples] (default 21) evenly spaced values of [α] in
    [[0, 1]]. Instances with more than 6 links fall back to the heuristic
    upper bound below [β_M]. [jobs] (default {!Sgr_par.Pool.default_jobs},
    itself [1] unless [SGR_JOBS] or [--jobs] says otherwise) distributes
    the α points over a domain pool; the curve is byte-identical at any
    job count. *)

val pigou_closed_form : float -> float
(** The analytically optimal ratio for Pigou's example:
    [((1-α)² + α) / (3/4)] for [α <= 1/2] and [1] beyond — used to
    validate the sweep machinery in tests and experiments. *)
