(** Single-source shortest paths with nonnegative edge weights.

    MOP (the paper's algorithm for networks) needs, for each commodity,
    both the distance labels under optimum-induced edge costs and the
    subgraph of edges lying on *some* shortest s–t path (footnote 5).
    The latter is characterized by
    [dist_from_s(src e) + w e + dist_to_t(dst e) = dist_from_s(t)].

    The kernel iterates the graph's CSR adjacency (see
    {!Digraph.out_offsets}) and can run inside a caller-owned
    {!workspace}, in which case repeated runs on the same graph perform
    no allocation — column-generation pricing does one run per
    commodity per round, and {!shortest_edge_subgraph} does two.

    A forward run may stop early, once a given set of target nodes is
    settled ({!run}'s [?targets]). {!shortest_edge_subgraph} reads every
    label, so its two runs are always full. *)

type result = {
  dist : float array;  (** [dist.(v)] — distance from the source; [infinity] if unreachable. *)
  pred : int array;
      (** [pred.(v)] — id of the edge entering [v] on one shortest path,
          or [-1] for the source and unreachable nodes. *)
}

(** {1 Workspaces} *)

type workspace
(** Reusable scratch state: dist/pred/settled/target-mark arrays plus
    the heap.
    A workspace adapts to whatever graph it is run on (it reallocates
    when the node count changes); reusing one across runs on the same
    graph allocates nothing. Not domain-safe: use one workspace per
    domain (e.g. via [Domain.DLS]) in parallel code. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh empty workspace; [hint] presizes the heap. *)

(** {1 Runs}

    [validate] (default [false]) checks every weight is nonnegative
    before running and raises [Invalid_argument] otherwise — an O(m)
    scan that solver inner loops skip; tests and entry points handling
    untrusted data should pass [~validate:true].

    When [?workspace] is supplied, the returned {!result} {e aliases}
    the workspace arrays: it is valid until the workspace's next run.
    Without it a fresh workspace is allocated per call. *)

val run :
  ?validate:bool -> ?workspace:workspace -> ?targets:int array -> Digraph.t ->
  weights:float array -> source:int -> result
(** Dijkstra from [source]. [weights] is indexed by edge id.

    Without [targets] the run settles every node reachable from
    [source], and every entry of the result is final.

    With [targets] the run stops as soon as the last distinct node of
    [targets] is settled, before relaxing that node's edges (duplicates,
    the source itself and unreachable nodes are allowed; an unreachable
    target makes the run a full one, and [[||]] settles only the source).
    Until it stops, the run does exactly what the full run does, so:
    - every target's [dist] and [pred] are final, and so are those of
      every node on its [pred] chain back to [source] — a path read
      from them is bit-for-bit the one the full tree gives;
    - so is every node whose distance is below the last target's;
    - any other entry may be tentative (a finite overestimate) or
      still [infinity]/[-1].

    The searches behind {!shortest_path}, column-generation pricing,
    all-or-nothing assignment and [Network.make]'s reachability check
    pass their sinks here. On the 10^4-edge synthetic city (2,501
    nodes, 32 commodities with 32 distinct sources) a Frank–Wolfe
    solve to gap 1e-4 relaxes 8.41M edges instead of 13.12M, and
    parsing the instance 133k instead of 320k.
    @raise Invalid_argument when a target is out of range. *)

val run_reverse :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> sink:int ->
  result
(** Distances *to* [sink] (Dijkstra on the reversed graph);
    [pred.(v)] is the edge leaving [v] on a shortest path to the sink.
    Always a full run. *)

val shortest_path :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> src:int ->
  dst:int -> int list option
(** Edge ids of one shortest [src]–[dst] path (in path order), or [None]
    if unreachable. The search stops once [dst] is settled ([run
    ~targets:[| dst |]]); the path is the one the full tree gives. *)

val shortest_edge_subgraph :
  ?eps:float -> ?validate:bool -> ?workspaces:workspace * workspace -> Digraph.t ->
  weights:float array -> src:int -> dst:int -> bool array
(** [b.(e)] is true iff edge [e] lies on some shortest [src]–[dst] path,
    up to additive slack [eps] (default {!Sgr_numerics.Tolerance.check_eps})
    to absorb solver noise in the weights. [workspaces] is the
    (forward, reverse) scratch pair for the two underlying runs. *)
