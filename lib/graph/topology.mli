(** Network topologies: routers connected by point-to-point links and
    multi-access LANs.

    A topology is built once through a {!builder} and then frozen; the
    frozen value exposes array-backed adjacency suitable for the inner
    loops of Dijkstra and of the simulator.

    Nodes are integers [0 .. n_nodes-1] and model routers.  Every
    (node, link) incidence is an {e interface}, numbered densely per node in
    link-creation order — the same numbering the paper uses when it talks
    about incoming and outgoing interface lists of multicast forwarding
    entries. *)

type node = int

type link_id = int

type iface = int
(** Interface number, local to a node. *)

val no_node : node
(** [-1]: no router, where an int stands in for a [node option]. *)

val no_iface : iface
(** [min_int]: a number no interface has — nor the [-1] routers use for
    their directly-connected pseudo interface — where an int stands in
    for an [iface option]. *)

type link = {
  id : link_id;
  ends : node array;  (** two nodes for point-to-point, two or more for a LAN *)
  cost : int;  (** unicast routing metric, at least 1 *)
  delay : float;  (** propagation delay in simulated seconds *)
  is_lan : bool;
}

type t

type builder

val builder : int -> builder
(** [builder n] starts a topology with [n] router nodes and no links. *)

val add_p2p : ?cost:int -> ?delay:float -> builder -> node -> node -> link_id
(** Add a point-to-point link.  Default cost 1, default delay 1.0.
    @raise Invalid_argument on a cost below 1: shortest-path code relies
    on every hop lengthening a path. *)

val add_lan : ?cost:int -> ?delay:float -> builder -> node list -> link_id
(** Add a multi-access LAN joining the given routers (at least one; a
    single-router LAN is a stub subnet where hosts live).
    @raise Invalid_argument on a cost below 1, as {!add_p2p}. *)

val freeze : builder -> t

(** {1 Queries on a frozen topology} *)

val n_nodes : t -> int

val n_links : t -> int

val link : t -> link_id -> link

val links : t -> link array

val ifaces : t -> node -> (iface * link_id) array
(** All interfaces of a node, in interface order. *)

val link_of_iface : t -> node -> iface -> link
(** @raise Invalid_argument if the interface does not exist. *)

val iface_of_link : t -> node -> link_id -> iface
(** The interface of [node] on [link].
    @raise Not_found if [node] is not on that link. *)

val iface_of_link_opt : t -> node -> link_id -> iface option

val end_ifaces : t -> link_id -> iface array
(** The interface each end of a link uses, parallel to its [ends]:
    [(end_ifaces t lid).(k) = iface_of_link t (link t lid).ends.(k) lid].
    Recorded once by {!freeze}, so per-frame delivery needs no search.
    Read-only: the array is shared, not copied. *)

type adjacency = {
  edge_start : int array;
      (** node [u]'s edges are [edge_start.(u)] to [edge_start.(u + 1) - 1];
          [n_nodes + 1] entries *)
  edge_nbr : node array;  (** the router the edge leads to *)
  edge_link : link_id array;  (** the link it crosses *)
  edge_cost : int array;  (** that link's cost *)
}
(** Every directed router-to-router edge in flat unboxed arrays: one edge
    per (node, interface, other router on that interface's link), in node,
    then interface, then [ends] order.  A LAN of [k] routers gives each
    member [k - 1] edges. *)

val adjacency : t -> adjacency
(** Built once by {!freeze}, for the inner loop of Dijkstra.  Read-only:
    the arrays are shared, not copied. *)

val max_cost : t -> int
(** The largest link cost; 1 for a topology without links. *)

val neighbors : t -> node -> (iface * node) list
(** Every (interface, neighbor) adjacency; a LAN with [k] other routers
    contributes [k] pairs on the same interface. *)

val others_on_link : t -> link_id -> node -> node list
(** The other routers on a link. *)

val count_others_on_link : t -> link_id -> node -> int
(** [List.length (others_on_link t lid u)], without building the list. *)

val degree : t -> node -> int
(** Number of interfaces. *)

val connected : t -> bool
(** Whole-topology connectivity (over links regardless of cost). *)

val pp : Format.formatter -> t -> unit
