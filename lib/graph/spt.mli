(** Shortest-path trees (Dijkstra) over a frozen topology.

    These are the SPTs of the paper: the tree rooted at a source over which
    PIM delivers data once receivers switch off the shared tree, and the
    yardstick against which center-based trees are compared in Figure 2. *)

type tree = {
  src : Topology.node;
  dist : int array;  (** cost from [src]; [max_int] when unreachable *)
  parent : int array;  (** predecessor on the shortest path; [-1] for the root and unreachable nodes *)
  via : int array;  (** link used to reach the node from its parent; [-1] where [parent] is *)
}

type scratch
(** Reusable working storage for Dijkstra: the distance/parent/via arrays
    and the bucket queue, allocated once and recycled across runs.  The
    Figure 2 experiments run Dijkstra hundreds of thousands of times on
    same-sized graphs; reusing a scratch removes all per-call allocation. *)

val make_scratch : n:int -> scratch
(** Scratch for topologies of exactly [n] nodes. *)

val scratch_size : scratch -> int

val single_source :
  ?usable:(Topology.node -> Topology.node -> Topology.link_id -> bool) ->
  Topology.t ->
  Topology.node ->
  tree
(** Dijkstra from [src] over {!Topology.adjacency}, with a bucket queue
    of more than {!Topology.max_cost} buckets (costs are at least 1).
    Its space and the distances it steps through grow with the largest
    cost, which suits small integer metrics like the generators' 1-3.
    The tree is deterministic: a node's parent is the first node, in
    (distance, id) order, that reaches it at its distance, over that
    node's first interface that does.  [usable u v lid] (default: always
    true) gates each directed edge, letting callers exclude failed links
    or nodes; it must not depend on when it is called.  Allocates a fresh
    result; see {!single_source_into} for the allocation-free variant. *)

val single_source_into :
  ?usable:(Topology.node -> Topology.node -> Topology.link_id -> bool) ->
  scratch ->
  Topology.t ->
  Topology.node ->
  tree
(** Same as {!single_source} but computes into [scratch] without allocating.
    The returned tree {e aliases} the scratch arrays: it is valid only until
    the next [single_source_into] (or {!all_pairs_into}) call on the same
    scratch — copy [dist]/[parent]/[via] if you need them longer.
    @raise Invalid_argument when the scratch size differs from
    [Topology.n_nodes]. *)

val distance : tree -> Topology.node -> int option
(** [None] when unreachable. *)

val path : tree -> Topology.node -> Topology.node list option
(** Node sequence from the root to the given node, inclusive. *)

val first_hop : Topology.t -> tree -> int array * int array
(** For every destination, the neighbor and root-side interface of the first
    link on the shortest path from the root, [-1] for the root itself and
    unreachable nodes.  Used to derive unicast forwarding tables. *)

val tree_edges :
  tree ->
  members:Topology.node list ->
  (Topology.node * Topology.node * Topology.link_id) list
(** The union of the shortest paths from the root to each member: the
    source-rooted distribution tree, as (parent, child, link) triples,
    deduplicated. *)

val all_pairs : Topology.t -> int array array
(** [all_pairs t] gives the full distance matrix ([max_int] when
    unreachable). *)

val all_pairs_into : scratch -> Topology.t -> int array array -> unit
(** Fill a caller-provided [n x n] matrix with all-pairs distances, reusing
    [scratch] for every source.  The matrix rows are owned by the caller
    (they are written, not aliased), so the result survives further scratch
    reuse.
    @raise Invalid_argument on size mismatches. *)
