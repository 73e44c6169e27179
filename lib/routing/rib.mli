(** The unicast Routing Information Base interface PIM consumes.

    The paper's central "protocol independent" claim (section 2, "Routing
    Protocol Independent") is that the multicast protocol only *reads* the
    unicast routing tables and never cares how they were computed.  This
    module is that boundary: a per-router view offering next-hop lookup,
    distance, and change notification.  Three substrates implement it —
    {!Static} (oracle all-pairs shortest paths), {!Distance_vector}
    (RIP-like) and {!Link_state} (OSPF-like) — and PIM, DVMRP, CBT and
    MOSPF all run unmodified on any of them. *)

type t = {
  node : Pim_graph.Topology.node;  (** the router owning this view *)
  route : Pim_net.Addr.t -> int;
      (** interface and next-hop router toward a unicast destination,
          packed into one int ({!route_iface}, {!route_node}) so a
          per-packet lookup builds nothing; [Topology.no_iface] when
          unreachable (or the destination is this router itself). *)
  distance : Pim_net.Addr.t -> int option;
      (** metric to the destination; [Some 0] for self. *)
  subscribe : (unit -> unit) -> unit;
      (** register a callback invoked whenever this router's table changes
          — PIM uses it to re-run RPF checks (section 3.8). *)
}

val pack_route : iface:Pim_graph.Topology.iface -> node:Pim_graph.Topology.node -> int
(** A reachable next hop as [route] returns it; [iface] and [node] are
    non-negative. *)

val route_iface : int -> Pim_graph.Topology.iface
(** A route's interface, [Topology.no_iface] when unreachable. *)

val route_node : int -> Pim_graph.Topology.node
(** A route's next-hop router, [Topology.no_node] when unreachable. *)

val next_hop : t -> Pim_net.Addr.t -> (Pim_graph.Topology.iface * Pim_graph.Topology.node) option
(** [route] unpacked: [None] when unreachable. *)

val rpf_iface : t -> Pim_net.Addr.t -> Pim_graph.Topology.iface option
(** The RPF interface toward an address: the interface this router would
    use to send unicast packets to it.  This is the incoming-interface
    check of every multicast scheme in the paper. *)

val resolve : Pim_net.Addr.t -> Pim_graph.Topology.node option
(** Map a simulated unicast address (router or host) to the router node
    that owns/serves it. *)
