(** Plain-text instance files.

    Two formats, distinguished by their first non-comment line. Lines
    starting with [#] and blank lines are ignored; latency specifications
    follow {!Latency_spec}.

    {b Parallel links} ([links] header):
    {v
    links
    demand 1.0
    link x
    link 2.5x + 0.1667
    link const 0.7
    v}

    {b Network} ([network] header); edges may carry any latency spec
    after the two endpoint node ids; [commodity SRC DST DEMAND] lines
    declare the commodities:
    {v
    network
    nodes 4
    edge 0 1 x
    edge 0 2 2x + 1
    edge 1 3 mm1 2.0
    commodity 0 3 1.0
    v} *)

type t =
  | Links of Sgr_links.Links.t
  | Network of Sgr_network.Network.t

val parse : string -> (t, string) result
(** Parse instance text, in one pass over its lines. Errors carry a
    line number; so do a [nodes] count past
    {!Sgr_graph.Digraph.max_nodes}, an edge endpoint outside
    [\[0, nodes)] and a self loop, all refused before anything is sized
    by the count. *)

val load : string -> (t, string) result
(** Read and parse a file. *)

val load_exn : string -> t
(** @raise Failure with the parse error message. *)

val to_string : t -> string
(** Canonical serialization: stable field order (header, demand/nodes,
    links/edges in id order, commodities in declaration order) with every
    float rendered as a hex literal ([%h]). [parse (to_string t)]
    reproduces [t] bit-exactly and [to_string] is stable under that round
    trip, so equal instances always serialize to equal bytes — the
    property {!Sgr_serve.Fingerprint} keys the instance cache on.
    @raise Invalid_argument on non-serializable (custom/shifted)
    latencies, which cannot appear in parsed instances. *)

val print_links : Sgr_links.Links.t -> string
(** Render a links instance in file format (round-trips through
    {!parse} for serializable latencies). *)

val print_network : Sgr_network.Network.t -> string
(** Render a network instance in file format. *)
