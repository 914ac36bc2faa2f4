(** Textual latency specifications, used by instance files and the CLI.

    Grammar (case-insensitive keywords, whitespace-insensitive):

    - affine expression: [\[A\]x \[+ B\]] or a bare number — e.g. ["x"],
      ["2.5x + 0.1667"], ["0.7"] (a bare number is a constant latency);
    - ["const C"] — constant latency [C];
    - ["mm1 CAP"] — M/M/1 delay with capacity [CAP];
    - ["bpr T0 CAP [ALPHA BETA]"] — BPR curve (defaults α=0.15, β=4);
    - ["poly C0 C1 C2 ..."] — polynomial coefficients by ascending degree;
    - ["affine A B"] — keyword form of [Ax + B]. Unlike the expression
      form, the numbers are whitespace-delimited tokens, so hex float
      literals are accepted (the canonical printer uses them);
    - ["shifted S SPEC"] — [x ↦ SPEC(S + x)], a link pre-loaded with
      [S >= 0] units of flow; [SPEC] is any specification, recursively.
      Nested shifts are canonicalized on construction (offsets sum), so
      the parsed kind is never doubly shifted.

    A specification is read in place: its words are offsets into the
    text, and read as numbers where they stand (a canonical [%h]
    literal without a substring), so no word list or lowercased copy
    is built. A word's length and first letter pick the one keyword it
    can be, and only that keyword is compared, ignoring ASCII case. A
    chain of [shifted] heads is read in one pass over its words, so a
    spec nested d levels deep parses in time and space linear in its
    length.

    The entries that take a slice [s lo hi] ({!parse_sub}, {!number_sub}
    and {!canonical_hex}) check [0 <= lo <= hi <= String.length s] once
    and raise [Invalid_argument] naming themselves otherwise, for
    instance ["Latency_spec.parse_sub: the slice [0, 9) is not within a
    string of length 5"]; past that check their scanners read the slice
    without bounds checks.
*)

val number : string -> float option
(** The number reader behind {!parse} and {!Instance_file.parse}: a
    float literal (surrounding blanks allowed) that is finite, else
    [None] — ["inf"] and ["nan"] are rejected like malformed text. *)

val number_sub : string -> int -> int -> float option
(** [number_sub s lo hi] is [number (String.sub s lo (hi - lo))],
    without the copy when the text is a canonical [%h] literal.
    @raise Invalid_argument when the slice is not within [s]. *)

val canonical_hex : string -> int -> int -> float array -> int -> bool
(** [canonical_hex s lo hi xs k] reads [s.[lo .. hi)] as the [%h]
    literal of a normal float, [\[-\]0x1\[.h…h\]p±e] with at most 13
    lowercase hex digits and [e] in [\[-1022, 1023\]], into [xs.(k)],
    and returns [true]. It reads the digits through a table and builds
    the float from its sign, exponent and fraction bits, so the value is
    the float [float_of_string] reads, bit for bit. On any other text it
    returns [false] and writes nothing ({!number_sub} then reads the
    text with [float_of_string]).
    @raise Invalid_argument when the slice is not within [s], or when
    [k] is not an index of [xs] and the text is such a literal. *)

val parse : string -> (Sgr_latency.Latency.t, string) result
(** Parse a specification; [Error msg] describes the first problem. *)

val parse_sub : string -> int -> int -> (Sgr_latency.Latency.t, string) result
(** [parse_sub s lo hi] is [parse (String.sub s lo (hi - lo))] read in
    place: the instance reader hands over a slice of its text.
    @raise Invalid_argument when the slice is not within [s]. *)

val parse_exn : string -> Sgr_latency.Latency.t
(** @raise Invalid_argument on a malformed specification. *)

val print : Sgr_latency.Latency.t -> string
(** Render a latency back into parseable form.
    [parse (print l)] reproduces [l] for every non-[Custom] latency
    (including [Shifted] ones, via the [shifted] keyword form).
    @raise Invalid_argument on [Custom] kinds, including a [Shifted]
    whose base is [Custom]. *)

val print_canonical : Sgr_latency.Latency.t -> string
(** Canonical serialization: fixed keyword head per kind, parameters as
    hex float literals ([%h]) in a fixed order. [parse (print_canonical l)]
    reproduces [l]'s kind and parameters {e bit-exactly}, and
    [print_canonical] is stable under that round trip — the foundation of
    {!Sgr_serve.Fingerprint}. [Shifted] kinds serialize as
    [shifted OFFSET BASE]; construction flattens nesting, so the base is
    never itself shifted. @raise Invalid_argument on [Custom] kinds,
    including a [Shifted] whose base is [Custom]. *)
