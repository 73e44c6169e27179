(** Router-side IGMP: querying and the local membership database.

    The multicast routing protocol owns the node's packet handler and
    passes IGMP packets here through {!handle_packet}; this module tracks
    which directly attached interfaces have members of which groups, ages
    them out, and raises join/leave callbacks — the "local members" input
    that drives every multicast routing protocol in the paper. *)

type config = {
  query_interval : float;  (** general-query period *)
  max_resp : float;  (** response-delay bound advertised in queries *)
  robustness : int;  (** missed queries tolerated before ageing out *)
}

val default_config : config
(** 60 s queries, 10 s response bound, robustness 2. *)

type t

val create : ?config:config -> Pim_sim.Net.t -> node:Pim_graph.Topology.node -> t
(** Starts periodic queries on every attached LAN where this router is the
    querier (lowest router id among live routers on the subnet — a
    stand-in for the querier election of IGMPv2). *)

val handle_packet : t -> iface:Pim_graph.Topology.iface -> Pim_net.Packet.t -> bool
(** Returns true when the packet was an IGMP message (and was consumed). *)

val has_member : t -> Pim_net.Group.t -> bool
(** Any directly attached member on any interface? *)

val member_ifaces : t -> Pim_net.Group.t -> Pim_graph.Topology.iface list
(** Interfaces with live local members of the group, sorted. *)

val member_on : t -> iface:Pim_graph.Topology.iface -> Pim_net.Group.t -> bool
(** [List.mem iface (member_ifaces t g)], without building the list. *)

val groups : t -> Pim_net.Group.t list
(** Groups with at least one live local member. *)

val rp_hint : t -> Pim_net.Group.t -> Pim_net.Addr.t list
(** G->RP mapping most recently advertised by a local member's report
    (empty when hosts supplied none). *)

val hint_changes : t -> int
(** How many reports have changed some group's {!rp_hint}: a reader of
    the hints that remembers this count knows whether any may have
    moved since. *)

val on_join : t -> (iface:Pim_graph.Topology.iface -> Pim_net.Group.t -> unit) -> unit
(** Fired when a group gains its first live member on an interface. *)

val on_leave : t -> (iface:Pim_graph.Topology.iface -> Pim_net.Group.t -> unit) -> unit
(** Fired when the last member of a group on an interface ages out. *)
