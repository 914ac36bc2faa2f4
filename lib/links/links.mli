(** Scheduling instances [(M, r)] on parallel links (paper, Section 4).

    [m] parallel links connect a source to a sink; an infinite population of
    selfish users routes a total flow [r > 0]. The two canonical flows are
    the Nash/Wardrop equilibrium [N] (all loaded links share a common
    latency [L_N]; unloaded links have latency [>= L_N], Remark 4.1) and the
    Optimum [O] (same condition on *marginal costs*, by convexity of
    [x·ℓ(x)]). Both are computed by water-filling on the common level with
    one engine, safeguarded Newton on the level, placing the last
    float-precision residual by each link's sensitivity so the answer
    passes {!verify_nash}/{!verify_opt}. When every link is a line
    ({!line}) the solve starts at the all-active line root and each step
    is one pass over the lines; otherwise each step is one pass of the
    level kernels ({!Sgr_latency.Latency.Kernels.flows} and
    {!Sgr_latency.Latency.Kernels.rates}), which invert every link
    (mostly in closed form) and sum the Newton rate. {!induced} hands the
    kernels the base latencies with the leader's flows as offsets. {!water_fill} is the bisection
    reference, on {!Sgr_latency.Latency.inverse}. *)

type t = private {
  latencies : Sgr_latency.Latency.t array;  (** One latency per link. *)
  demand : float;  (** Total flow [r > 0]. *)
}

val make : Sgr_latency.Latency.t array -> demand:float -> t
(** @raise Invalid_argument if no links, [demand < 0] or [demand] is not
    finite. (Zero demand is allowed so that recursive algorithms can reach
    the empty game; its Nash and optimum are the all-zero assignment.) *)

val num_links : t -> int

val with_demand : t -> float -> t
(** Same links, different total flow. *)

val sub : t -> keep:bool array -> demand:float -> t * int array
(** [sub t ~keep ~demand] restricts to the links with [keep.(i)] true;
    also returns the map from new indices to original ones. Used by
    OpTop's recursive simplification. *)

(** {1 Flows and costs} *)

val cost : t -> float array -> float
(** [C(X) = Σ xᵢ·ℓᵢ(xᵢ)]. *)

val is_feasible : ?eps:float -> t -> float array -> bool
(** Nonnegative and sums to the demand. *)

val latencies_at : t -> float array -> float array
(** Per-link latency at the given assignment. *)

val beckmann : t -> float array -> float
(** The Beckmann potential [Σᵢ ∫₀^{xᵢ} ℓᵢ(u) du], whose minimizer over
    feasible assignments is exactly the Nash equilibrium. *)

(** {1 Equilibrium and optimum} *)

type solution = {
  assignment : float array;
  level : float;
      (** Common latency of loaded links (Nash) or common marginal cost
          (optimum). *)
}

val nash : t -> solution
(** The Wardrop equilibrium of [(M, r)]. Unique for strictly increasing
    latencies; with constant-latency links, ties at the level are split
    evenly (the cost is invariant to the split). Each level step counts
    in [links.level_iterations], each safeguard bisection step also in
    [bisection.iterations].
    @raise Failure when no finite level carries the demand (M/M/1 links
    whose capacities sum below it). *)

val opt : t -> solution
(** The optimum assignment of [(M, r)], solved like {!nash} on the
    marginal costs. *)

val line : Sgr_latency.Latency.t -> (float * float) option
(** [Some (a, b)] when [ℓ(x) = a·x + b] exactly on [x >= 0]: constants,
    affine, degree-[<= 1] polynomials and their [Shifted] (intercept
    [b + a·s]) and toll-shifted forms. [None] for every curve. *)

val solve_lines : slopes:float array -> intercepts:float array -> demand:float -> solution
(** Water-fills the criterion lines [yᵢ(x) = slopesᵢ·x + interceptsᵢ]
    (a zero slope is a constant link) with the loop behind {!nash}.
    [slopes] is scratch: the call overwrites it, so a caller that probes
    many tolls refills one buffer instead of allocating a copy per call.
    [intercepts] is left as it was. *)

val water_fill : [ `Nash | `Opt ] -> t -> solution
(** The bisection reference: bisect on the common level to [4·ε_mach],
    invert each link's latency (Nash) or marginal cost (optimum), and
    rescale the assignment to sum to the demand. Works on every latency
    kind; tests and bench T1 call it directly to check and time
    {!nash}/{!opt}. The rescale can break the level equality of a steep
    link, so compare costs and levels with it, not flows. *)

val price_of_anarchy : t -> float
(** [C(N)/C(O)]. *)

val verify_nash : ?eps:float -> t -> float array -> bool
(** Post-hoc Wardrop check: loaded links share the minimum latency;
    unloaded links are no faster. *)

val verify_opt : ?eps:float -> t -> float array -> bool
(** Post-hoc optimality check on marginal costs. *)

(** {1 Stackelberg induced equilibria} *)

val induced : t -> strategy:float array -> solution
(** [induced t ~strategy:s] is the Followers' equilibrium [T] of the
    remaining flow [r - Σs] under a-posteriori latencies
    [x ↦ ℓᵢ(sᵢ + x)] (Remark 4.2). [assignment] holds only the induced
    part [T].
    @raise Invalid_argument if [s] is infeasible (negative entries or
    [Σs > r + eps]). *)

val stackelberg_cost : t -> strategy:float array -> float
(** [C(S + T)] where [T] is the induced equilibrium of [strategy]. *)

val pp : Format.formatter -> t -> unit
