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

val create :
  ?config:config ->
  ?trace:Pim_sim.Trace.t ->
  net:Pim_sim.Net.t ->
  rib:Pim_routing.Rib.t ->
  core_of:(Pim_net.Group.t -> Pim_net.Addr.t option) ->
  Pim_graph.Topology.node ->
  t

val node : t -> Pim_graph.Topology.node

val join_local : t -> Pim_net.Group.t -> unit
(** Local member: triggers the JOIN-REQUEST / JOIN-ACK exchange toward the
    core (no-op at the core itself, which is always on-tree). *)

val leave_local : t -> Pim_net.Group.t -> unit

val on_tree : t -> Pim_net.Group.t -> bool
(** Confirmed on the group's tree (the core is always on-tree once it has
    seen the group). *)

val tree_ifaces : t -> Pim_net.Group.t -> Pim_graph.Topology.iface list
(** Parent and confirmed child interfaces, ascending: the interfaces
    among [0 .. degree - 1] that pass {!on_tree_iface}. *)

val on_tree_iface :
  now:float ->
  children:(Pim_graph.Topology.iface, float) Hashtbl.t ->
  parent:(Pim_graph.Topology.iface * Pim_graph.Topology.node) option ->
  confirmed:bool ->
  core:bool ->
  Pim_graph.Topology.iface ->
  bool
(** The per-packet tree test over one group's state: is the interface a
    child whose timer ([children]) runs past [now], or the [parent]
    interface of a [confirmed] router that is not the group's [core]?
    Data is accepted only on such an interface and copied onto every
    other one; forwarding walks the router's interfaces through this test
    instead of building {!tree_ifaces}. *)

val entry_count : t -> int
(** Per-group tree state entries held by this router. *)

val on_local_data : t -> (Pim_net.Packet.t -> unit) -> unit

val send_local_data : t -> group:Pim_net.Group.t -> ?size:int -> unit -> unit

val local_source_addr : t -> Pim_net.Addr.t

val is_encapsulated_data : Pim_net.Packet.t -> bool
(** True for the core-bound tunnel frames of off-tree senders when they
    carry multicast data (traffic classifiers must count them as data). *)

val restart : t -> unit
(** Crash-and-reboot: wipe all tree state, then rejoin the tree of every
    group with directly-connected members.  Former children only discover
    the loss when their echoes go unanswered for [parent_timeout] and
    flush — CBT's hard state has no periodic refresh to heal them sooner
    (paper footnote 4). *)

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
