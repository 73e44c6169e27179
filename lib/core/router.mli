(** A PIM sparse-mode router (the protocol of section 3).

    One instance per topology node.  The router owns the node's packet
    handler: it forwards unicast packets using the supplied {!Pim_routing.Rib},
    runs router-side IGMP on attached LANs, and implements the full
    sparse-mode machinery:

    - explicit Join/Prune toward RPs and sources, with periodic soft-state
      refresh (sections 3.2, 3.4, 3.6);
    - Register encapsulation at the source's first-hop router and Join
      toward the source at the RP (section 3);
    - shared-tree to shortest-path-tree switching with the SPT-bit
      transition rules and triggered Prune toward the RP (sections 3.3,
      3.5), under a configurable DR policy;
    - negative caches ((S,G) entries with the RP bit) masking pruned
      sources off the shared tree (section 3.3, footnote 11);
    - LAN join suppression and prune override via overheard hop-by-hop
      messages addressed to 224.0.0.2 (section 3.7);
    - reaction to unicast routing changes: iif repair, prune on the old
      path, join on the new (section 3.8);
    - RP-reachability origination and receiver-side failover across an
      ordered RP list (sections 3.2, 3.9).

    Local members can be real IGMP hosts on attached LANs, or synthetic
    members/sources injected with {!join_local} and {!send_local_data}
    (used by the graph-scale experiments, where per-host simulation would
    only add noise).

    Each router counts what it sends, forwards and drops into its net's
    {!Pim_sim.Net.counters} under its own node. *)

type t

val create :
  ?config:Config.t ->
  ?igmp_config:Pim_igmp.Router.config ->
  ?trace:Pim_sim.Trace.t ->
  ?rp_lookup:(Pim_net.Group.t -> Pim_net.Addr.t list) ->
  net:Pim_sim.Net.t ->
  rib:Pim_routing.Rib.t ->
  rp_set:Rp_set.t ->
  Pim_graph.Topology.node ->
  t
(** Installs the node's packet handler and starts the periodic timers.
    The [rib] must belong to the same node.  [rp_lookup] supplies a
    dynamic (elected) group-to-RP mapping, consulted before the static
    [rp_set] — see {!Bsr}; when it returns [[]] for a group the static
    set and host hints apply, so routers degrade to configuration while
    an election converges.  Memberships joined before any mapping exists
    are remembered and retried every sweep. *)

val node : t -> Pim_graph.Topology.node

val addr : t -> Pim_net.Addr.t

val fib : t -> Pim_mcast.Fwd.t
(** The live forwarding table (inspected by tests and examples). *)

val config : t -> Config.t

val igmp : t -> Pim_igmp.Router.t

val is_rp_for : t -> Pim_net.Group.t -> bool
(** Is this router in the group's RP set? *)

val current_rp : t -> Pim_net.Group.t -> Pim_net.Addr.t option
(** The RP this router's shared-tree entry currently points at. *)

val join_local : t -> Pim_net.Group.t -> unit
(** Synthetic directly-connected member: establishes (or refreshes) the
    shared tree exactly as an IGMP report would. *)

val leave_local : t -> Pim_net.Group.t -> unit

val join_on_iface : t -> Pim_net.Group.t -> iface:Pim_graph.Topology.iface -> unit
(** Like {!join_local} but the member lives behind a real interface: the
    shared-tree oif is that interface, so group data is transmitted on it.
    Used by border routers joining "on behalf of" an attached dense-mode
    region (section 4, interoperation). *)

val leave_on_iface : t -> Pim_net.Group.t -> iface:Pim_graph.Topology.iface -> unit

val add_proxy_iface : t -> Pim_graph.Topology.iface -> unit
(** Declare an interface to face a non-PIM (dense-mode) region for which
    this router acts as first-hop proxy: multicast data arriving on it
    from unknown sources is treated as locally originated — registered to
    the group's RPs and forwarded natively — exactly the "BRs would join a
    PIM tree externally and inject themselves as sources internally"
    proxying of section 4. *)

val has_local_members : t -> Pim_net.Group.t -> bool

val on_local_data : t -> (Pim_net.Packet.t -> unit) -> unit
(** Fired once per data packet delivered to this router's local members. *)

val send_local_data : t -> group:Pim_net.Group.t -> ?host:int -> ?size:int -> unit -> unit
(** Synthetic directly-connected source: originates one data packet as the
    first-hop DR would see it (registers to the RPs, forwards natively
    where state exists).  [host] (1..255, default 1) selects which host on
    this router's stub subnet the packet claims as source — several hosts
    behind one router share a /24, which is what source aggregation
    collapses. *)

val local_source_addr : ?host:int -> t -> Pim_net.Addr.t
(** The source address {!send_local_data} uses for [host]. *)

val periodic_refresh : t -> unit
(** One periodic Join/Prune refresh (sections 3.4, 4): every entry's
    join or prune state, bundled per upstream neighbor.  The router's own
    timer runs it every [jp_period]. *)

val sweep : t -> unit
(** One soft-state sweep (sections 3.4, 3.6): expire prune masks, oifs
    and entries, prune when an oif list empties, fail over to another RP.
    The router's own timer runs it every [sweep_interval]. *)

val restart : t -> unit
(** Crash-and-reboot: wipe the forwarding table and every per-entry
    protocol timer, keeping only configuration (RP set, {!Config}) and
    directly-connected memberships — which are immediately re-announced,
    as attached hosts would answer the first post-reboot IGMP query.  The
    trees must re-form purely via triggered joins and the periodic
    soft-state refresh (section 3.4).  Pair with
    [Net.set_node_up net node false] / [... true] to model the outage
    itself; call [restart] at the moment the node comes back. *)
