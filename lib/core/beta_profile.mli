(** The price of optimum as a function of the total demand.

    Each scheduling instance [(M, r)] has its own [β_M]; sweeping [r]
    shows how much control a Leader needs across load regimes — the
    quantity behind the paper's remark that M/M/1 systems with a few
    strong links or many identical links have small [β]. On Pigou's
    example the curve has the closed form [max(0, 1 - 1/(2r))], used to
    validate the machinery. *)

type point = {
  demand : float;
  beta : float;  (** [β_M] of [(M, demand)]. *)
  poa : float;  (** Price of anarchy at this demand. *)
}

val run :
  ?samples:int -> Sgr_links.Links.t -> r_lo:float -> r_hi:float -> point list
(** [run t ~r_lo ~r_hi] evaluates [samples] (default 21) evenly spaced
    demands in [[r_lo, r_hi]]. [r_lo >= 0], [r_lo <= r_hi] and
    [2 <= samples <= Alpha_sweep.max_samples] required.
    Demands an M/M/1 system cannot carry raise [Failure] (from the
    solver), as they have no equilibrium. *)

val pigou_closed_form : float -> float
(** [β_M] of Pigou's example at demand [r]: [max 0 (1 - 1/(2r))]. *)
