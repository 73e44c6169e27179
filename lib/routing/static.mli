(** Oracle unicast routing: shortest paths over the live topology.

    Routes always reflect the current link and node state, so this
    substrate has zero convergence time.  It is the default for
    experiments, where unicast convergence noise would obscure the
    multicast measurements; {!Distance_vector} and {!Link_state} exist to
    demonstrate that the multicast protocols are oblivious to the
    substrate.

    A router's table is its shortest-path tree (Dijkstra, ties toward
    smaller node ids) and nothing more: a lookup walks the tree's parents
    to find the first hop.  The tree is one [int] array with one packed
    word per destination: from the low end, its parent + 1 ([bits n]
    wide), the link from its parent + 1 ([bits n_links] wide) and its
    distance in the remaining bits, all ones when unreachable.  The
    widths are fixed per topology at {!create}.  A table is built on the
    router's first lookup: PIM asks only the routers on its trees, and
    only about sources, RPs and cores.  On a link or node change a table is rebuilt only if the
    change alters its tree, and a router is notified only if its answer
    toward some destination it has looked up changed.  A node change is
    handled once, not once per link. *)

type t

val create : Pim_sim.Net.t -> t
(** Builds no routes yet; subscribes to the network's state changes.
    @raise Invalid_argument when the longest possible path,
    [Topology.max_cost × (n − 1)], does not fit below all ones in the
    distance field (40 bits wide at 2000 routers and 4000 links). *)

val rib : t -> Pim_graph.Topology.node -> Rib.t
(** The per-router RIB view handed to multicast protocols.  An address
    naming a router outside the topology reads as unreachable. *)

val refresh : t -> unit
(** Rebuild every table built so far from the current network state, and
    notify the routers whose answers changed.  Changes the network reports
    do this on their own, for the tables they affect. *)

val dijkstras : t -> int
(** Tables built or rebuilt so far: one Dijkstra each. *)
