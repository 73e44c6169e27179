(** Core Based Trees (paper reference [10]) — the shared-tree baseline.

    One bidirectional tree per group, rooted at a per-group core router.
    Receivers' first-hop routers send JOIN-REQUEST hop-by-hop toward the
    core; the first on-tree router (or the core) answers with a JOIN-ACK
    that travels back down, committing child state at every hop — CBT's
    explicit-acknowledgement design, which footnote 4 of the PIM paper
    contrasts with PIM's soft-state refresh.  Liveness is maintained with
    child-to-parent ECHO keepalives; a parent that goes silent causes the
    child to flush and re-join.

    Data from an on-tree router fans out over every tree interface except
    the arriving one.  An off-tree sender's first-hop router encapsulates
    data to the core (CBT non-member sending), which injects it into the
    tree.

    The delay and traffic-concentration penalties of this single shared
    tree are what Figure 2 of the paper quantifies.

    Each router counts into its net's {!Pim_sim.Net.counters} under its
    own node. *)

type config = {
  echo_interval : float;  (** child-to-parent keepalive period *)
  child_timeout : float;  (** parent drops a silent child after this long *)
  parent_timeout : float;  (** child flushes after this long without echoes *)
  rejoin_delay : float;  (** pause before re-joining after a flush *)
}

val default_config : config

val fast_config : config

type t

type tree = {
  up : Pim_graph.Topology.node;  (** the parent router; [no_node] at the core *)
  mutable confirmed : bool;  (** JOIN-ACK received (always, at the core) *)
  mutable pending : Pim_graph.Topology.iface list;
      (** children whose JOIN-REQUEST waits for this router's own ack *)
  mutable join_outstanding : bool;  (** a JOIN-REQUEST is in flight upstream *)
  mutable parent_deadline : float;  (** flush when no echo reply came by then *)
}
(** The join state of a group's row that the row's own fields do not hold. *)

type Pim_mcast.Fwd.ext += Tree of tree

val create :
  ?config:config ->
  ?trace:Pim_sim.Trace.t ->
  net:Pim_sim.Net.t ->
  rib:Pim_routing.Rib.t ->
  core_of:(Pim_net.Group.t -> Pim_net.Addr.t option) ->
  Pim_graph.Topology.node ->
  t

val node : t -> Pim_graph.Topology.node

val fib : t -> Pim_mcast.Fwd.t
(** The router's tree state, one "(*,G)" row per group it has seen: [rp]
    is the group's core and [iif] the parent interface ([None] at the
    core).  Each child is an oif whose [expires] is the child's timer
    (refreshed by its echoes); a directly-connected member is the [local]
    oif on interface [-1], as in PIM-SM.  [ext] is {!Tree}. *)

val join_local : t -> Pim_net.Group.t -> unit
(** Local member: triggers the JOIN-REQUEST / JOIN-ACK exchange toward the
    core (no-op at the core itself, which is always on-tree). *)

val leave_local : t -> Pim_net.Group.t -> unit

val on_tree : t -> Pim_net.Group.t -> bool
(** Confirmed on the group's tree (the core is always on-tree once it has
    seen the group). *)

val on_tree_iface : now:float -> Pim_mcast.Fwd.entry -> Pim_graph.Topology.iface -> bool
(** The per-packet tree test over one row: is the interface a child whose
    timer runs past [now], or the iif of a confirmed row?  Data is
    accepted only on such an interface. *)

val tree_ifaces : now:float -> Pim_mcast.Fwd.entry -> Pim_graph.Topology.iface list
(** The interfaces data injected at the router is copied onto, in the
    order forwarding walks them: ascending, each interface that passes
    {!on_tree_iface}. *)

val on_local_data : t -> (Pim_net.Packet.t -> unit) -> unit

val send_local_data : t -> group:Pim_net.Group.t -> ?host:int -> ?size:int -> unit -> unit
(** [host] (default 1): the host on this router's stub subnet to send as. *)

val local_source_addr : ?host:int -> t -> Pim_net.Addr.t
(** The source address {!send_local_data} uses for [host]. *)

val is_encapsulated_data : Pim_net.Packet.t -> bool
(** True for the core-bound tunnel frames of off-tree senders when they
    carry multicast data (traffic classifiers must count them as data). *)

val restart : t -> unit
(** Crash-and-reboot: wipe all tree state, then rejoin the tree of every
    group with directly-connected members.  Former children only discover
    the loss when their echoes go unanswered for [parent_timeout] and
    flush — CBT's hard state has no periodic refresh to heal them sooner
    (paper footnote 4). *)

val tick : t -> unit
(** One echo-interval timer firing: echo requests to confirmed parents and
    join retransmits, in group order, then child aging, flushes on silent
    parents and quits, in descending group order.  The router's own timer
    runs it every [echo_interval]. *)

module Deployment : sig
  type router := t

  type t

  val create_static :
    ?config:config ->
    ?trace:Pim_sim.Trace.t ->
    Pim_sim.Net.t ->
    core_of:(Pim_net.Group.t -> Pim_net.Addr.t option) ->
    t

  val router : t -> Pim_graph.Topology.node -> router

  val total_entries : t -> int
end
