(** Load-dependent latency functions.

    A latency function [ℓ] maps a nonnegative flow [x] to a nonnegative
    delay [ℓ(x)]. The paper's standing assumptions (Section 4, Remark 2.5)
    are: [ℓ] differentiable, strictly increasing, with [x·ℓ(x)] convex.
    Following Remark 2.5's cited extension, constant latencies are also
    admitted; the solvers treat them specially.

    Values of type {!t} carry closed-form evaluation, derivative, primitive
    [∫₀ˣ ℓ] (the Beckmann term), a second derivative computed from the
    {!kind}, and closed-form inverses of the latency and of the marginal
    cost for every kind that has one (affine, [b + c·xᵈ], BPR, M/M/1 and
    their [Shifted] forms, see {!inverse}); everything else falls back to
    guarded numerical routines.

    Loops that evaluate or invert many latencies at once use a {!Table}:
    the closed-form kinds laid out flat, evaluated and inverted by the
    same formulas inside the loop, without boxing a float or calling a
    closure per entry. *)

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
    @raise Invalid_argument on a negative coefficient. *)

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
    canonical-serialization/fingerprint invariant rests on this). *)

val shift_intercept : float -> t -> t
(** [shift_intercept τ ℓ] is [x ↦ ℓ(x) + τ]: a constant additive delay —
    the latency seen by users of a link charging toll [τ >= 0]. Constant,
    affine and polynomial latencies (also under a [Shifted] node) absorb
    [τ] into their coefficients, so the result keeps its closed-form kind
    and fast inverses; other kinds fall back to an opaque [Custom] wrapper
    with exact derivative and primitive.
    @raise Invalid_argument if [τ < 0]. *)

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

val check_increasing : ?samples:int -> ?hi:float -> t -> bool
(** Sampled sanity check that [eval] is nondecreasing on [[0, hi]]
    (default [hi = 10.], 64 samples). Used by validation code and tests;
    not a proof. *)

(** {1 Flat tables}

    A latency array laid out flat for loops that run over every entry:
    Frank–Wolfe's gradient and line search ({!Table.make}), and the
    parallel-links water-fill's level passes ({!Table.curves}). Each
    closed-form entry is a kind tag and its coefficients, evaluated by
    the same formula as {!eval} and {!marginal} (or inverted as by
    {!inverse}), inside the kernel's loop: no float is boxed and no
    closure is called. The other entries call the latency's own
    closures. Every value equals the closure path's bit for bit; each
    evaluating kernel call adds the number of entries it evaluates to
    the [latency.evaluations] counter, once. *)
module Table : sig
  type latency := t
  type t

  val make : latency array -> t
  (** [make lats]: entry [i] is [lats.(i)]. The table keeps [lats]; do
      not mutate it while the table is in use. *)

  val fill : t -> marginal:bool -> at:float array -> into:float array -> unit
  (** [fill t ~marginal ~at ~into] sets [into.(i)] to ℓᵢ(at.(i)), or with
      [marginal] to ℓᵢ(x) + x·ℓᵢ'(x) at [x = at.(i)], for every entry.
      @raise Invalid_argument when [at] or [into] is shorter than [t]. *)

  val directional :
    t ->
    marginal:bool ->
    base:float array ->
    entries:int array ->
    dirs:float array ->
    len:int ->
    float ->
    float
  (** [directional t ~marginal ~base ~entries ~dirs ~len γ] is
      Σₖ dₖ·vₑ(base.(e) + γ·dₖ) over [k < len], with [e = entries.(k)],
      [dₖ = dirs.(k)] and vₑ the latency (or with [marginal] the
      marginal cost) of entry [e], summed in [k] order: the derivative
      along a direction [d] with support [entries] of the Beckmann
      potential (or of the total cost) at [base + γ·d]. *)

  type line
  (** A direction's support gathered for a line search: per entry its
      base point, its direction component and, for an affine entry, its
      slope and intercept, laid out contiguously. *)

  val line : t -> line
  (** An empty line with room for every entry of the table. *)

  val gather :
    line ->
    marginal:bool ->
    base:float array ->
    entries:int array ->
    dirs:float array ->
    len:int ->
    unit
  (** [gather l ~marginal ~base ~entries ~dirs ~len] loads the support
      {!directional} would read: [base.(e)], [dirs.(k)] and entry [e]'s
      coefficients for [e = entries.(k)], [k < len]. It evaluates
      nothing. Later writes to [base] do not reach the line.
      @raise Invalid_argument when [len] exceeds the table's size. *)

  val slope_at : line -> float -> float
  (** [slope_at l γ] is [directional t ~marginal ~base ~entries ~dirs
      ~len γ] on what [l] gathered, bit for bit: the same terms summed in
      the same order. An all-affine line reads only its own arrays;
      other kinds keep the table's kernel. Adds [len] to
      [latency.evaluations]. *)

  (** {2 Level tables}

      The two kernels of a water-fill pass on the common level l: every
      entry's flow at l, and the Newton rate of their sum. Entry [i] is
      the criterion curve gᵢ of [shift offsets.(i) lats.(i)]: its latency,
      or with [marginal] its marginal cost. A constant entry is the
      water-fill's reservoir and takes no flow; every other entry is
      rigid. Affine, [b + c·xᵈ], BPR and M/M/1 latencies with the closed
      forms of {!inverse} (or {!inverse_marginal}) at their offset run
      inside the kernels' loops, by the formulas that {!inverse},
      {!inverse_marginal}, {!deriv} and {!deriv2} use: no float is boxed
      and no closure called. Every other entry (a kind with no closed
      form, [Custom], and any [Shifted] latency, whose derivative chains
      its offsets through closures) calls the closures of its shifted
      latency. Every value equals the closure path's bit for bit. *)

  type curves

  val curves : marginal:bool -> latency array -> offsets:float array -> curves
  (** [curves ~marginal lats ~offsets]. The table keeps both arrays; do
      not mutate them while it is in use.
      @raise Invalid_argument on arrays of different lengths or a
      negative offset. *)

  val rigid : curves -> int -> bool
  (** [false] for a constant entry ({!constant_value}). *)

  val activations : curves -> lines:float array -> into:float array -> unit
  (** [activations c ~lines ~into] sets [into.(i)] to gᵢ(0): a constant's
      value, [lines.(i)] when it is not nan (a line's intercept, known
      without evaluation), and otherwise the curve evaluated at zero
      flow, which counts one [latency.evaluations]. *)

  val flows : curves -> float -> into:float array -> float
  (** [flows c l ~into] sets [into.(i)] to the flow of every rigid entry
      at level [l], gᵢ⁻¹(l) by {!inverse} (or {!inverse_marginal})
      clamped at 0, and returns their sum in index order. Constant
      entries are left as they are. Counts no evaluation, as {!inverse}
      counts none. *)

  val rates : curves -> float array -> into:float array -> float
  (** [rates c x ~into] sets [into.(i)] to 1/gᵢ'(xᵢ) (gᵢ' is ℓ' for a
      latency, 2ℓ' + xℓ'' for a marginal cost) on every entry with
      [xᵢ > 0] and to 0 elsewhere, and returns their sum in index order:
      the rate dΣx/dl at which the loaded entries' flows rise with the
      level. *)

  val rate : curves -> int -> float -> float
  (** [rate c i x] is 1/gᵢ'(x) for one entry, at any [x >= 0]. *)
end
