(** Load-dependent latency functions.

    A latency function [ℓ] maps a nonnegative flow [x] to a nonnegative
    delay [ℓ(x)]. The paper's standing assumptions (Section 4, Remark 2.5)
    are: [ℓ] differentiable, strictly increasing, with [x·ℓ(x)] convex.
    Following Remark 2.5's cited extension, constant latencies are also
    admitted; the solvers treat them specially.

    A value of type {!t} is data: its {!kind}, plus what a kind cannot
    carry, a [Custom]'s functions and, for a shift of a shifted or custom
    latency, the latency it shifts. Each operation dispatches on the
    kind, once, in this module: evaluation, derivative, primitive
    [∫₀ˣ ℓ] (the Beckmann term), second derivative, and closed-form
    inverses of the latency and of the marginal cost for every kind that
    has one (affine, [b + c·xᵈ], BPR, M/M/1 and their [Shifted] forms,
    see {!inverse}); everything else falls back to guarded numerical
    routines.

    Loops that evaluate or invert many latencies at once call the
    {!Kernels}, which run the same formulas over a latency array inside
    the loop, without boxing a float or calling a closure per entry. *)

type kind =
  | Constant of float  (** [ℓ(x) = c]. *)
  | Affine of { slope : float; intercept : float }  (** [ℓ(x) = a·x + b]. *)
  | Polynomial of float array
      (** [ℓ(x) = Σ cᵢ xⁱ], coefficients by ascending degree. *)
  | Mm1 of { capacity : float }
      (** M/M/1 delay [ℓ(x) = 1 / (capacity - x)], defined for
          [x < capacity] (Korilis–Lazar–Orda systems). *)
  | Bpr of { free_flow : float; capacity : float; alpha : float; beta : float }
      (** Bureau of Public Roads: [ℓ(x) = t₀·(1 + α (x/c)^β)]. *)
  | Shifted of { offset : float; base : kind }
      (** [ℓ(x) = base(offset + x)] — a-posteriori latency seen by
          Followers when a Leader pre-loads [offset] (Section 4). *)
  | Custom of string  (** Opaque user function; label used for printing. *)

type t

val kind : t -> kind

(** {1 Constructors} *)

(** The closed-form constructors, {!shift} and {!shift_intercept} refuse
    a parameter that is nan or infinite, as they refuse a negative one,
    with an [Invalid_argument] that names the constructor: a latency
    built on one evaluates to nan. *)

val constant : float -> t
(** [constant c]: [ℓ(x) = c], [c >= 0]. *)

val affine : slope:float -> intercept:float -> t
(** [affine ~slope:a ~intercept:b]: [ℓ(x) = a·x + b] with [a, b >= 0].
    [slope = 0] yields a constant. *)

val linear : float -> t
(** [linear a] is [affine ~slope:a ~intercept:0.]. *)

val polynomial : float array -> t
(** [polynomial [|c0; c1; ...|]]: coefficients must be [>= 0] (a standard
    sufficient condition for monotone latency and convex [x·ℓ(x)]).
    @raise Invalid_argument on a negative or non-finite coefficient. *)

val monomial : coeff:float -> degree:int -> t
(** [monomial ~coeff ~degree]: [ℓ(x) = coeff·x^degree]. *)

val mm1 : capacity:float -> t
(** [mm1 ~capacity]: M/M/1 delay; requires [capacity > 0]. *)

val bpr : free_flow:float -> capacity:float -> ?alpha:float -> ?beta:float -> unit -> t
(** BPR congestion curve; defaults [alpha = 0.15], [beta = 4.]. *)

val custom :
  ?label:string ->
  eval:(float -> float) ->
  ?deriv:(float -> float) ->
  ?primitive:(float -> float) ->
  unit ->
  t
(** Opaque latency. Missing [deriv] uses central differences; missing
    [primitive] uses adaptive quadrature. The function must be strictly
    increasing on [x >= 0]; this is the caller's obligation. *)

val shift : float -> t -> t
(** [shift s ℓ] is [x ↦ ℓ(s + x)]: the a-posteriori latency of a link
    pre-loaded with Leader flow [s >= 0]. Shifting an already-shifted
    latency sums the offsets — the resulting {!kind} never nests
    [Shifted] inside [Shifted], so structurally equal latencies have
    equal kinds regardless of how the total shift was accumulated (the
    canonical-serialization/fingerprint invariant rests on this). A
    shift of a shifted latency keeps the latency it shifts, so {!eval},
    {!deriv} and {!primitive} of [shift s₁ (shift s₂ ℓ)] add the offsets
    one at a time, [ℓ(s₂ + (s₁ + x))], while {!inverse},
    {!inverse_marginal} and {!deriv2} read the kind's summed offset; the
    two can differ in the last bit. *)

val shift_intercept : float -> t -> t
(** [shift_intercept τ ℓ] is [x ↦ ℓ(x) + τ]: a constant additive delay —
    the latency seen by users of a link charging toll [τ >= 0]. Constant,
    affine and polynomial latencies (also under a [Shifted] node) absorb
    [τ] into their coefficients, so the result keeps its closed-form kind
    and fast inverses; other kinds fall back to an opaque [Custom] wrapper
    with exact derivative and primitive.
    @raise Invalid_argument if [τ < 0] or [τ] is not finite. *)

(** {1 Evaluation} *)

val eval : t -> float -> float
(** [eval ℓ x] is [ℓ(x)]. *)

val deriv : t -> float -> float
(** [deriv ℓ x] is [ℓ'(x)]. *)

val primitive : t -> float -> float
(** [primitive ℓ x] is [∫₀ˣ ℓ(u) du] — the link's Beckmann potential. *)

val marginal : t -> float -> float
(** [marginal ℓ x] is the marginal social cost [ℓ(x) + x·ℓ'(x)] — the
    derivative of [x·ℓ(x)], equalized across loaded links at the optimum. *)

val cost : t -> float -> float
(** [cost ℓ x] is [x·ℓ(x)]. *)

(** {1 Structure} *)

val constant_value : t -> float option
(** [Some c] when the latency is constant (including shifted constants,
    zero-slope affines, and BPR curves with [alpha = 0] or
    [free_flow = 0]); [None] otherwise. Solvers use this to give
    constant links their special water-filling treatment. *)

val is_constant : t -> bool

val deriv2 : t -> float -> float
(** [deriv2 ℓ x] is [ℓ''(x)]: closed form for constant, affine,
    polynomial, M/M/1 and BPR latencies and their [Shifted] forms, a
    central difference of {!deriv} otherwise. The Newton level solve of
    the optimum needs it: the slope of the marginal cost is
    [2ℓ'(x) + xℓ''(x)]. *)

val inverse : t -> float -> float
(** [inverse ℓ y] is the flow [x >= 0] with [ℓ(x) = y], assuming
    [ℓ(0) <= y] and strictly increasing [ℓ]; returns [0.] when [y <= ℓ(0)].
    Closed form for affine, [b + c·xᵈ] (a polynomial with one nonconstant
    term), BPR, M/M/1 and the [Shifted] form of each; {!reference_inverse}
    otherwise.
    @raise Failure when the latency is constant or bounded below [y]. *)

val inverse_marginal : t -> float -> float
(** Same as {!inverse} for the marginal-cost map [x ↦ ℓ(x) + xℓ'(x)].
    Closed form for affine, [b + c·xᵈ], BPR and M/M/1, and for shifted
    affine and shifted M/M/1; {!reference_inverse} otherwise. *)

val reference_inverse : [ `Nash | `Opt ] -> t -> float -> float
(** The bracketed bisection behind {!inverse} ([`Nash]) and
    {!inverse_marginal} ([`Opt]) for kinds with no closed form, on any
    kind: the oracle the closed forms are tested against. Same contract
    as {!inverse}. *)

(** {1 Misc} *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. [5/2·x + 1/6] prints as
    ["2.5x + 0.1667"]. *)

val to_string : t -> string

(** {1 Array kernels}

    The loops that run over a latency array: whole-array fills
    ({!Kernels.fill}, as for all-or-nothing's free-flow weights),
    Frank–Wolfe's gradient and line search ({!Kernels.fill_entries},
    {!Kernels.directional}, {!Kernels.gather}, {!Kernels.slope_sign}),
    and the parallel-links water-fill's level passes
    ({!Kernels.activations}, {!Kernels.flows}, {!Kernels.rates}). Each
    runs the formula of every entry's kind inside its loop, as {!eval},
    {!marginal}, {!inverse} and {!deriv2} do, so a latency whose kind is
    its whole function boxes no float and calls no closure; the others
    ([Custom], a shift of a shifted latency) follow their functions. No
    kernel copies the latencies or builds a table, and every value equals
    the scalar functions' bit for bit; a line search's probe decided
    from the line's exact model ({!Kernels.slope_sign}) has the bits'
    sign. Each evaluating kernel call adds the number of entries it
    evaluates to the [latency.evaluations] counter, once. *)
module Kernels : sig
  type latency := t

  val fill : latency array -> marginal:bool -> at:float array -> into:float array -> unit
  (** [fill lats ~marginal ~at ~into] sets [into.(i)] to ℓᵢ(at.(i)), or
      with [marginal] to ℓᵢ(x) + x·ℓᵢ'(x) at [x = at.(i)], for every
      latency. [at] and [into] may be the same array. Adds the number of
      latencies to [latency.evaluations].
      @raise Invalid_argument when [at] or [into] is shorter than [lats]. *)

  val fill_entries :
    latency array ->
    marginal:bool ->
    at:float array ->
    entries:int array ->
    len:int ->
    into:float array ->
    unit
  (** [fill_entries lats ~marginal ~at ~entries ~len ~into] is {!fill}
      on the entries [i = entries.(k)], [k < len], alone: it sets each
      such [into.(i)] to the value {!fill} gives it, bit for bit, and
      leaves every other entry of [into] as it is. Adds [len] to
      [latency.evaluations]. Each listed [i] must index [lats].
      @raise Invalid_argument, before writing anything, when [at] or
      [into] is shorter than [lats], or [len] is negative or longer than
      [entries]. *)

  val directional :
    latency array ->
    marginal:bool ->
    base:float array ->
    entries:int array ->
    dirs:float array ->
    len:int ->
    float ->
    float
  (** [directional lats ~marginal ~base ~entries ~dirs ~len γ] is
      Σₖ dₖ·vₑ(base.(e) + γ·dₖ) over [k < len], with [e = entries.(k)],
      [dₖ = dirs.(k)] and vₑ the latency (or with [marginal] the
      marginal cost) of [lats.(e)], summed in [k] order: the derivative
      along a direction [d] with support [entries] of the Beckmann
      potential (or of the total cost) at [base + γ·d]. Adds [len] to
      [latency.evaluations]. *)

  type line
  (** A direction's support gathered for a line search: per entry its
      base point, its direction component and, for an affine latency,
      its slope and intercept, laid out contiguously; and, when every
      entry is affine, the exact model of the line's slope that
      {!slope_sign} decides probes from. *)

  val line : latency array -> line
  (** An empty line over [lats], with room for every latency. The line
      keeps [lats]; do not mutate it while the line is in use. *)

  val gather :
    line ->
    marginal:bool ->
    base:float array ->
    entries:int array ->
    dirs:float array ->
    len:int ->
    unit
  (** [gather l ~marginal ~base ~entries ~dirs ~len] loads the support
      {!directional} would read: [base.(e)], [dirs.(k)] and the
      coefficients of latency [e] for [e = entries.(k)], [k < len].
      When every entry is affine, ℓ(x) = a·x + c, it also sums, in the
      same pass, the slope's model A + γB and a bound T on its terms,
      with [pₖ = base.(e)], [m = 2] for [marginal] (whose criterion is
      2a·x + c) and 1 otherwise: A = Σ d·(m·a·p + c), B = Σ m·a·d² and
      T = Σ |d|·(m·a·|p| + c). That pass adds [len] to
      [latency.evaluations]; a line with another kind evaluates
      nothing here. Later writes to [base] do not reach the line.
      @raise Invalid_argument when [len] exceeds the number of latencies. *)

  val slope_at : line -> float -> float
  (** [slope_at l γ] is [directional lats ~marginal ~base ~entries ~dirs
      ~len γ] on what [l] gathered, bit for bit: the same terms summed in
      the same order. An all-affine line reads only its own arrays;
      other kinds evaluate their latencies. Adds [len] to
      [latency.evaluations] and 1 to [latency.full_sum_probes]. *)

  val slope_sign : line -> float -> float
  (** [slope_sign l γ] compares with 0 as [slope_at l γ] does: it is
      positive, negative, zero or nan exactly when [slope_at l γ] is, so
      a bisection on it takes the same branches and returns the same
      bits. On an all-affine line at [0 <= γ <= 1] whose bases,
      directions and coefficients sum in magnitude to at most 2^256, it
      is the model A + γB when |A + γB| exceeds
      2(n+10)·ε·(T + γB) + (n+10)·2^-500 (n = [len],
      ε = [epsilon_float]): a bound on the rounding of both
      the model and the full sum (Higham, {e Accuracy and Stability of
      Numerical Algorithms}, 2002, §4.2) and on what underflow can lose,
      so the exact slope, and [slope_at l γ], have the model's sign and
      are not zero. Such a probe evaluates nothing. Everywhere else,
      when the model cannot decide, on a line with another kind, and
      wherever a nan or infinity appears, it is [slope_at l γ] itself,
      counted as {!slope_at} counts. *)

  (** {2 Level kernels}

      The kernels of a water-fill pass on the common level l: every
      entry's activation point, its flow at l, and the Newton rate of
      their sum. Entry [i] is the criterion curve gᵢ of
      [shift offsets.(i) lats.(i)], read with no shifted latency built:
      its latency, or with [marginal] its marginal cost. A constant
      entry ({!is_constant}) is the water-fill's reservoir and takes no
      flow; every other entry is rigid. Each raises [Invalid_argument]
      when an array is shorter than [lats] or an offset it reads is
      negative. *)

  val activations :
    latency array ->
    offsets:float array ->
    marginal:bool ->
    lines:float array ->
    into:float array ->
    unit
  (** [activations lats ~offsets ~marginal ~lines ~into] sets [into.(i)]
      to gᵢ(0): a constant's value, [lines.(i)] when it is not nan (a
      line's intercept, known without evaluation), and otherwise the
      curve evaluated at zero flow, which counts one
      [latency.evaluations]. *)

  val flows :
    latency array -> offsets:float array -> marginal:bool -> float -> into:float array -> float
  (** [flows lats ~offsets ~marginal l ~into] sets [into.(i)] to the flow
      of every rigid entry at level [l], gᵢ⁻¹(l) by {!inverse} (or
      {!inverse_marginal}) clamped at 0, and returns their sum in index
      order. Constant entries are left as they are. Counts the
      evaluations {!inverse} counts: none on a closed form.
      @raise Failure where {!inverse} does. *)

  val rates :
    latency array ->
    offsets:float array ->
    marginal:bool ->
    float array ->
    into:float array ->
    float
  (** [rates lats ~offsets ~marginal x ~into] sets [into.(i)] to
      1/gᵢ'(xᵢ) (gᵢ' is ℓ' for a latency, 2ℓ' + xℓ'' for a marginal
      cost) on every entry with [xᵢ > 0] and to 0 elsewhere, and returns
      their sum in index order: the rate dΣx/dl at which the loaded
      entries' flows rise with the level. *)

  val rate : latency array -> offsets:float array -> marginal:bool -> int -> float -> float
  (** [rate lats ~offsets ~marginal i x] is 1/gᵢ'(x) for one entry, at
      any [x >= 0]. *)
end
