(** Directed multigraphs with integer node ids and dense edge ids.

    Nodes are [0 .. num_nodes-1]; edges get consecutive ids in insertion
    order, so per-edge data (latencies, flows, weights, capacities) lives in
    plain arrays indexed by edge id. Parallel edges and antiparallel pairs
    are allowed; self loops are rejected (the paper's model forbids them).
    A graph is built edge by edge ({!builder}) or at once from its
    endpoint arrays ({!of_arrays}, what the instance reader collects). *)

type edge = private { id : int; src : int; dst : int }

type t

(** {1 Construction} *)

type builder

val builder : num_nodes:int -> builder
(** Fresh builder over nodes [0 .. num_nodes-1].
    @raise Invalid_argument unless [1 <= num_nodes <= ]{!max_nodes}. *)

val add_edge : builder -> src:int -> dst:int -> int
(** Adds an edge and returns its id.
    @raise Invalid_argument on out-of-range endpoints or a self loop. *)

val freeze : builder -> t
(** Finalize into an immutable graph. The builder must not be reused. *)

val of_arrays : num_nodes:int -> srcs:int array -> dsts:int array -> t
(** [of_arrays ~num_nodes ~srcs ~dsts] has one edge [srcs.(e) ->
    dsts.(e)] per index [e], with id [e]: {!freeze} on the same
    [add_edge] calls, without the builder. The graph keeps both arrays
    as its {!edge_sources} and {!edge_targets}: do not mutate them
    afterwards.
    @raise Invalid_argument as {!builder} and {!add_edge} do, or when
    the arrays differ in length. *)

val of_edges : num_nodes:int -> (int * int) list -> t
(** [of_edges ~num_nodes [(s1,d1); ...]] builds a graph whose edge ids
    follow the list order. *)

(** {1 Access} *)

val num_nodes : t -> int
val num_edges : t -> int

val edge : t -> int -> edge
(** Edge by id, a record made from the endpoint arrays on each call.
    @raise Invalid_argument if out of range. *)

val edges : t -> edge array
(** All edges by id, in a fresh array. Loops over every edge read
    {!edge_sources} and {!edge_targets} instead. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 CSR adjacency}

    [freeze] lays the adjacency out in compressed-sparse-row form, the
    graph's only adjacency layout: flat [int array]s of edge ids with
    per-node offset indexes, plus flat endpoint arrays indexed by edge
    id. Kernels iterate these directly, without allocating. All
    returned arrays are owned by the graph: do not mutate. *)

val edge_sources : t -> int array
(** [edge_sources t].(e) is the source node of edge [e]. *)

val edge_targets : t -> int array
(** [edge_targets t].(e) is the target node of edge [e]. *)

val out_offsets : t -> int array
(** [num_nodes + 1] offsets into {!out_edge_ids}: node [v]'s outgoing
    edge ids occupy the slice [\[off.(v), off.(v+1))]. *)

val out_edge_ids : t -> int array
(** All edge ids grouped by source node, each group in insertion order. *)

val in_offsets : t -> int array
(** Like {!out_offsets}, for incoming edges. *)

val in_edge_ids : t -> int array
(** All edge ids grouped by target node, each group in insertion order. *)

val iter_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_out t v f] calls [f edge_id dst] for each outgoing edge of
    [v], in insertion order, without allocating. *)

val iter_in : t -> int -> (int -> int -> unit) -> unit
(** [iter_in t v f] calls [f edge_id src] for each incoming edge of
    [v], in insertion order, without allocating. *)

val pp : Format.formatter -> t -> unit

(** {1 Limits} *)

val max_nodes : int
(** The most nodes a graph may have: 2^20. The node arrays of a graph
    and of every search on it are sized by its node count, so readers
    of untrusted input check a declared count against this cap before
    building anything (the 10^5-edge city of the T13 timings has 25,001
    nodes). *)
