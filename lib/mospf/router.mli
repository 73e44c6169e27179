(** MOSPF-style link-state multicast (paper references [3], [7]) — the
    membership-broadcast baseline.

    Group membership is flooded to every router in the domain as
    group-membership LSAs; on receiving a data packet, a router computes
    (and caches) the shortest-path tree from the packet's source subnetwork
    to the group members, then forwards on its downstream tree links.

    The paper names the two costs that stop this design from scaling to
    wide areas, and both are surfaced as counters here: every router
    stores membership for {e every} group in the domain
    ({!membership_entries}), and forwarding cache misses trigger Dijkstra
    runs (the [Spf_runs] kind of {!Pim_sim.Net.counters}; routers count
    [Lsa_sent], [Data_forwarded], [Data_dropped_iif],
    [Data_dropped_off_tree] and [Data_delivered_local] there too).

    The SPT is computed over the topology restricted to live links/nodes —
    the converged state link-state routing maintains at every router.
    Every router would compute the same tree from a given source, so a
    {!Deployment} computes it once per source and shares it among its
    routers until the network next changes; each router then reads its
    own part (incoming interface, downstream interfaces) off the shared
    tree.  [Spf_runs] still counts one run per router plan — the cost
    the modelled protocol pays — not the simulator's shared work. *)

type t

type lsa = {
  origin : Pim_graph.Topology.node;
  seq : int;  (** the origin's sequence number; a higher one supersedes *)
  groups : Pim_net.Group.t list;  (** the origin's local groups, ascending *)
}
(** A group-membership LSA.  The record is immutable and shared: the
    origin builds it once, floods one packet carrying it, and every router
    that accepts it stores that same record in its link-state database
    (one slot per origin router) and re-floods the packet it received
    under its own source address, so installing an LSA copies only the
    packet header. *)

type Pim_net.Packet.payload += Membership_lsa of lsa

type plan = {
  iif : Pim_graph.Topology.iface option;
      (** where data from the source must arrive; [None] at the source's
          first-hop router and off the tree *)
  olist : Pim_graph.Topology.iface list;  (** downstream tree interfaces, ascending *)
  member_here : bool;  (** a local member of the group is attached *)
  on_tree : bool;  (** the source's first hop, or on the path to a member *)
}
(** One router's share of the (source, group) delivery tree. *)

val node : t -> Pim_graph.Topology.node

val membership_entries : t -> int
(** (router, group) membership pairs this router currently stores — the
    per-router state burden of flooded membership: its own groups plus
    those of the LSA it holds for every other origin. *)

val knows_member : t -> Pim_graph.Topology.node -> Pim_net.Group.t -> bool
(** [knows_member t u g]: whether router [u] has a local member of [g],
    as far as [t] knows — its own groups when [u] is [t], else the LSA
    [t] holds from [u].  [u] must be a node of the topology. *)

val join_local : t -> Pim_net.Group.t -> unit
(** Floods a membership LSA to the whole domain. *)

val leave_local : t -> Pim_net.Group.t -> unit

val on_local_data : t -> (Pim_net.Packet.t -> unit) -> unit

val send_local_data : t -> group:Pim_net.Group.t -> ?host:int -> ?size:int -> unit -> unit
(** [host] (default 1): the host on this router's stub subnet to send as. *)

val local_source_addr : ?host:int -> t -> Pim_net.Addr.t
(** The source address {!send_local_data} uses for [host]. *)

val plan_for : t -> Pim_graph.Topology.node -> Pim_net.Group.t -> plan
(** [plan_for t src g] is the plan this router forwards [g]'s data from
    router [src]'s subnetwork with.  A cache miss computes it (one
    [Spf_runs] count); membership and topology changes invalidate the cache. *)

val rows : t -> Pim_mcast.Fwd.entry list
(** The router's cached on-tree plans as (S,G) rows, one per (source
    router, group) it forwards for, in {!Pim_mcast.Fwd.compare_entry}
    order: S is the source router's own address ({!Pim_net.Addr.router}),
    [iif] the plan's, and the oifs are [olist] plus a [local] oif on
    interface [-1] when [member_here], every timer at [infinity]; no RP,
    no flag.  Built on each call: reading them neither fills nor drops a
    cached plan, and counts no [Spf_runs]. *)

val restart : t -> unit
(** Crash-and-reboot: wipe the LSDB and forwarding cache; local
    memberships survive and the own LSA is re-flooded at once with a
    higher sequence number.  Other routers' membership is relearned from
    their next (refresh-driven) LSA. *)

module Deployment : sig
  type router := t

  type t

  val create : ?trace:Pim_sim.Trace.t -> ?lsa_refresh:float -> Pim_sim.Net.t -> t
  (** One router per topology node, sharing one table of source trees.
      [lsa_refresh] enables periodic re-origination of each router's
      membership LSA (real OSPF's LSRefreshTime), off by default.  Without
      it a router that {!restart}s never relearns other routers'
      membership until they next change. *)

  val router : t -> Pim_graph.Topology.node -> router

  val total_membership_entries : t -> int
end
