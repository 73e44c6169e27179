(** Packet delivery over a topology inside the event loop.

    Routers register one handler; hosts attach to (stub) LANs.  Sending on
    an interface models one link-layer transmission: a point-to-point frame
    reaches the other endpoint, a broadcast/multicast frame on a LAN
    reaches every other router and host on it, and a targeted frame
    ([?to_node]) reaches only the addressed router — the distinction
    section 3.7 of the paper relies on (joins/prunes are multicast on the
    LAN so other routers can overhear and suppress or override).

    Links and nodes can be taken down and up to exercise the soft-state
    repair and RP-failover machinery. *)

type t

type host_id

val create : Engine.t -> Pim_graph.Topology.t -> t

val engine : t -> Engine.t

val topo : t -> Pim_graph.Topology.t

val set_handler : t -> Pim_graph.Topology.node -> (iface:Pim_graph.Topology.iface -> Pim_net.Packet.t -> unit) -> unit
(** Install a packet handler of a router.  Handlers stack: every handler
    receives every packet, in installation order — a unicast routing
    process and a multicast routing process coexist on one node, each
    ignoring the other's payloads (which is how real routers work). *)

val send :
  t -> Pim_graph.Topology.node -> iface:Pim_graph.Topology.iface -> ?to_node:Pim_graph.Topology.node -> Pim_net.Packet.t -> unit
(** Transmit on an interface.  Dropped silently when the sending node or
    the link is down.  Delivery happens after the link's propagation
    delay; receivers whose node went down in the meantime miss the
    packet.  Re-sending the frame being delivered keeps its {!ttl}. *)

val forward : t -> Pim_graph.Topology.node -> iface:Pim_graph.Topology.iface -> Pim_net.Packet.t -> unit
(** {!send} the same packet value as a frame one router further on: its
    {!ttl} at the next receiver is one lower.  This is how a multicast
    router copies a datagram onto a tree interface without building a
    copy.  Only a packet whose {!ttl} is above 1 may be forwarded; test
    that first.
    @raise Invalid_argument when it is not. *)

val ttl : t -> Pim_net.Packet.t -> int
(** The remaining TTL of a packet: [pkt.ttl] less the routers that
    forwarded it when [pkt] is the frame being delivered (to handlers,
    hosts and {!on_deliver} subscribers), [pkt.ttl] for any other
    packet. *)

val with_ttl : t -> Pim_net.Packet.t -> Pim_net.Packet.t
(** The packet with its {!ttl} written into its own field: itself when no
    router has forwarded it.  For a packet kept or encapsulated beyond its
    delivery. *)

val attach_host :
  t -> Pim_graph.Topology.link_id -> addr:Pim_net.Addr.t -> (Pim_net.Packet.t -> unit) -> host_id
(** Attach a host to a LAN (or point-to-point) link; it overhears every
    broadcast frame on that link. *)

val host_send : t -> host_id -> Pim_net.Packet.t -> unit
(** Host transmission: broadcast on the host's link. *)

val host_addr : t -> host_id -> Pim_net.Addr.t

val host_link : t -> host_id -> Pim_graph.Topology.link_id

val set_link_up : t -> Pim_graph.Topology.link_id -> bool -> unit
(** Change link state and notify {!on_change} and {!on_link_change}
    subscribers. *)

val link_up : t -> Pim_graph.Topology.link_id -> bool

val set_node_up : t -> Pim_graph.Topology.node -> bool -> unit
(** A down node neither sends nor receives.  Subscribers are notified for
    each of the node's links (as if they flapped). *)

val node_up : t -> Pim_graph.Topology.node -> bool

val set_loss_rate :
  t -> ?prng:Pim_util.Prng.t -> ?filter:(Pim_net.Packet.t -> bool) -> float -> unit
(** Drop each transmission independently with the given probability
    (0 disables, the default).  Deterministic given the PRNG (a fixed-seed
    one is used until one is supplied).  [filter] (every frame until one
    is supplied) selects which packets are subject to loss — experiments
    drop control frames only, the regime soft state is designed to
    survive: "lost packets will be recovered from at the next periodic
    refresh time" (paper section 3.4).  The PRNG and filter stay as last
    supplied, so a change of rate alone (a {!Fault} loss burst and its
    end) keeps them. *)

val loss_rate : t -> float

val dropped : t -> int
(** Transmissions lost to the configured loss rate so far. *)

val set_jitter : t -> ?prng:Pim_util.Prng.t -> float -> unit
(** Add a uniform extra propagation delay in [0, amplitude) to every
    subsequent transmission (0 disables, the default).  With jitter on,
    two frames sent back-to-back on the same link can genuinely arrive
    out of order — the reordering regime the chaos harness exercises.
    Deterministic given the PRNG (a fixed-seed one is used when none is
    supplied). *)

val jitter : t -> float

type tamper = [ `Drop | `Duplicate | `Delay of float ]
(** A one-shot, message-level fault applied to the next transmission on a
    link: silently discard it, deliver it twice, or hold it back an extra
    [`Delay d] seconds (a one-shot reordering — later frames overtake the
    delayed one).  The search layer's action alphabet, in contrast to the
    probabilistic regimes of {!set_loss_rate} / {!set_jitter}. *)

val tamper_next : t -> Pim_graph.Topology.link_id -> tamper -> unit
(** Arm a one-shot tamper on a link.  Tampers queue in FIFO order: each
    subsequent transmission on the link consumes one.  A [`Drop] counts
    toward {!dropped} and is reported to {!on_drop}; a [`Duplicate] is a
    single offered transmission delivered twice (two traversals). *)

val on_link_change : t -> (Pim_graph.Topology.link_id -> bool -> unit) -> unit
(** Subscribe to link up/down transitions (unicast protocols re-converge,
    PIM re-runs its RPF checks — section 3.8).  A node changing state is
    heard as each of its up links changing. *)

val on_change : t -> (Pim_graph.Topology.link_id list -> unit) -> unit
(** Subscribe to state changes, heard once per {!set_link_up} or
    {!set_node_up} call that changes something, with every link whose
    usability it changed: the link itself, or each up link of the node.
    By the time it runs the network is already in its new state, so a
    subscriber that recomputes from it does the work once per change
    rather than once per link.  Change subscribers run before the
    {!on_link_change} subscribers of the same change. *)

val on_send : t -> (Pim_graph.Topology.link_id -> Pim_net.Packet.t -> unit) -> unit
(** Observe every transmission accepted onto a link, at send time and
    before the loss roll — the capture layer's view of offered load.
    Together with {!on_deliver} and {!on_drop} every frame's fate is
    observable: sent, then either delivered or dropped. *)

val on_drop : t -> (Pim_graph.Topology.link_id -> Pim_net.Packet.t -> unit) -> unit
(** Observe frames that die in the network: lost to {!set_loss_rate} at
    send time, or in flight on a link that went down (reported at what
    would have been delivery time). *)

val metrics : t -> Pim_util.Metrics.t
(** The network's metrics registry.  [Net] itself maintains the
    [net_offered] / [net_delivered] / [net_dropped] counters; protocol
    routers register their per-node/per-group instruments against the
    same registry, and experiments export it as JSON (see
    EXPERIMENTS.md). *)

val counters : t -> Counters.t
(** The protocol counters of every router deployed on this net, one slot
    per node and {!Counters.kind}. *)

val on_deliver : t -> (Pim_graph.Topology.link_id -> Pim_net.Packet.t -> unit) -> unit
(** Observe every completed link traversal (one call per delivered
    transmission, not per receiver, at delivery time) — the hook the
    overhead experiments use to count data and control bandwidth per
    link, and the oracle uses to detect forwarding loops.  Frames lost
    to the loss rate or to a mid-flight link failure are not observed. *)

val traversals : t -> Pim_graph.Topology.link_id -> int
(** Delivered transmissions per link since creation.  A frame lost to
    {!set_loss_rate} or to the link going down while it was in flight is
    not counted — these counters feed the overhead figures, which measure
    bandwidth actually consumed end to end. *)

val total_traversals : t -> int

val offered : t -> int
(** Transmission attempts accepted onto some link (before the loss roll),
    network-wide.  [offered >= total_traversals + dropped]; the remainder
    is frames that died in flight on a link that went down. *)
