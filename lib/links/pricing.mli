(** Best-response toll pricing on parallel affine links.

    The pricing-game counterpart of Stackelberg flow control (the
    Goldberg–Polpinit parallel-link pricing equilibrium, PAPERS.md):
    each link belongs to a profit-maximizing owner charging a toll
    [τᵢ >= 0]; users split the demand selfishly under the tolled
    latencies [ℓᵢ(x) + τᵢ]; owner [i] collects [τᵢ·xᵢ]. Tolled affine
    latencies stay lines, so every payoff probe is one water-fill of the
    slopes and the tolled intercepts ({!Links.solve_lines}), the engine
    behind {!Links.nash}, with no latency value rebuilt. *)

type result = {
  tolls : float array;  (** One toll per link at the fixed point. *)
  flow : float array;  (** User equilibrium under the final tolls. *)
  level : float;  (** Common tolled latency of the loaded links. *)
  revenues : float array;  (** [τᵢ·xᵢ]. *)
  user_cost : float;
      (** Latency cost [Σ xᵢ·ℓᵢ(xᵢ)] of the tolled equilibrium, priced by
          the original latencies (tolls are transfers, not social cost). *)
  rounds : int;
  converged : bool;  (** False when the round budget ran out first. *)
}

val best_response : ?max_rounds:int -> ?tol:float -> Links.t -> result
(** Cyclic best-response dynamics: each owner in turn maximizes revenue
    against the others' current tolls (grid scan + golden-section over
    [0, τᵢᵐᵃˣ]), until a full round moves no toll by more than [tol]
    (relative; default [1e-9]) or [max_rounds] (default 64) rounds pass.
    A converged point is a pure Nash equilibrium of the pricing game up
    to the search resolution. Deterministic.
    @raise Invalid_argument on fewer than two links (a monopolist prices
    unboundedly), on constant-latency links, or on non-affine
    latencies. *)

val price_of_pricing : Links.t -> result -> float
(** Tolled user cost over the untolled optimum cost [C(O)] — how much
    decentralized profit-seeking owners cost the users, the pricing
    analogue of the price of optimum. *)

val pp : Format.formatter -> result -> unit
