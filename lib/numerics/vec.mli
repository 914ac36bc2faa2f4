(** Small helpers over [float array] flow vectors.

    Flows over links, edges and paths are represented as plain float
    arrays throughout the library; these helpers keep the arithmetic
    allocation-light and numerically careful (Kahan summation). *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val add : float array -> float array -> float array
(** Pointwise sum (fresh array). *)

val scale : float -> float array -> float array
(** [scale c v] is [c * v] (fresh array). *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val linf_dist : float array -> float array -> float
(** Max-norm distance. *)

val max_elt : float array -> float
(** Largest element. Requires a nonempty array. *)

val min_elt : float array -> float
(** Smallest element. Requires a nonempty array. *)

val argmin : float array -> int
(** Index of the smallest element (first on ties). Requires nonempty. *)

val all_nonneg : ?eps:float -> float array -> bool
(** Every entry is [>= -eps]. *)

val pp : Format.formatter -> float array -> unit
(** Prints [⟨x1, ..., xn⟩] with 6 significant digits. *)
