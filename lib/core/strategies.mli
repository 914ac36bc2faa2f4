(** Classical Stackelberg strategies on parallel links, used as baselines.

    These are the heuristics the paper positions itself against:
    - [LLF] ("Largest Latency First", Roughgarden 2001): saturate links to
      their optimal load in decreasing order of optimal latency until the
      Leader's budget [αr] runs out. Guarantees [C(S+T) ≤ (1/α)·C(O)] on
      parallel links, and [≤ (4/(3+α))·C(O)] for linear latencies.
    - [SCALE]: play [α·O].
    - [Aloof]: play nothing (the Followers produce the plain Nash flow). *)

type outcome = {
  strategy : float array;  (** Leader assignment; sums to [α·r]. *)
  induced_cost : float;  (** [C(S + T)]. *)
  ratio_to_opt : float;  (** [C(S+T) / C(O)] — the a-posteriori anarchy cost. *)
}

(** [llf], [scale] and [evaluate] take the instance's optimum
    assignment ([(Links.opt t).assignment]) as [~optimum], so a caller
    that plays many budgets on one instance solves it once, and its
    cost [C(O)] as [?opt_cost] when the caller holds it (it must be
    [Links.cost t optimum]; without it each call sums it again). *)

val llf :
  ?opt_cost:float -> Sgr_links.Links.t -> optimum:float array -> alpha:float -> outcome
(** [llf ?opt_cost t ~optimum ~alpha] is
    [llf_prepared ?opt_cost (prepare t ~optimum) ~alpha].
    @raise Invalid_argument unless [0 <= alpha <= 1]. *)

type prepared
(** LLF's saturation order on one instance at one optimum: the links by
    decreasing latency at the optimum, ties by index. It depends on no
    budget, so a caller that plays LLF at many [alpha] on one instance
    ([Alpha_sweep.range]) builds it once. *)

val prepare : Sgr_links.Links.t -> optimum:float array -> prepared
(** Evaluates each link's latency at [optimum] once and sorts. The
    preparation keeps [optimum]; do not mutate it while the preparation
    is in use. *)

val llf_prepared : ?opt_cost:float -> prepared -> alpha:float -> outcome
(** LLF at budget [alpha·r] on the prepared instance, bit for bit what
    {!llf} returns on it.
    @raise Invalid_argument unless [0 <= alpha <= 1]. *)

val scale :
  ?opt_cost:float -> Sgr_links.Links.t -> optimum:float array -> alpha:float -> outcome

val aloof : Sgr_links.Links.t -> outcome

val evaluate :
  ?opt_cost:float -> Sgr_links.Links.t -> optimum:float array -> strategy:float array -> outcome
(** Wrap an arbitrary feasible Leader assignment. *)
