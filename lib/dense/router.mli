(** Dense-mode multicast router: truncated reverse-path broadcast with
    prunes (paper section 1.1), in two flavours.

    - [Dvmrp] restricts flooding to child links — the downstream routers
      whose reverse path toward the source runs through this router — as
      DVMRP learns from its unicast exchange (footnote 1 of the paper).
      We read the same information from the neighbors' RIBs, which is what
      the poison-reverse machinery would converge to.
    - [Pim_dm] is the protocol-independent dense variant (paper reference
      [13]): no child information, flood on every non-incoming interface
      and let prunes (including prunes triggered by packets arriving on
      non-RPF point-to-point interfaces) cut the useless branches.

    In both, pruned branches grow back after [prune_timeout] and the next
    data packet re-floods them — the periodic re-broadcast behaviour whose
    cost Figure 1 illustrates and PIM sparse mode eliminates.

    Each router counts into its net's {!Pim_sim.Net.counters} under its
    own node. *)

type mode =
  | Dvmrp
  | Pim_dm

type config = {
  mode : mode;
  prune_timeout : float;  (** pruned branch lifetime before grow-back *)
  entry_linger : float;  (** (S,G) state kept this long past the last packet *)
  graft : bool;
      (** send an immediate Join upstream when a local member appears on a
          pruned branch (off by default: the '94 text relies on grow-back) *)
  prune_override_delay : float;  (** LAN prune-override delay (section 3.7) *)
  prune_override_window : float;
  prune_rate_limit : float;  (** min interval between prunes per (S,G) *)
  sweep_interval : float;
  advertise_members : bool;
      (** flood intra-region membership advertisements — the "group member
          existence information" border routers need to join PIM trees on
          the region's behalf (section 4, interoperation); off by default *)
  advert_interval : float;  (** periodic re-advertisement period *)
}

val default_config : config
(** DVMRP mode, 180 s prune timeout, 210 s linger, no graft. *)

val fast_config : config
(** Timers divided by 10 for quick simulations. *)

type t

val create :
  ?config:config ->
  ?igmp_config:Pim_igmp.Router.config ->
  ?trace:Pim_sim.Trace.t ->
  net:Pim_sim.Net.t ->
  rib:Pim_routing.Rib.t ->
  neighbor_rib:(Pim_graph.Topology.node -> Pim_routing.Rib.t) ->
  Pim_graph.Topology.node ->
  t
(** [neighbor_rib] is consulted for the DVMRP child check; [Pim_dm] mode
    never calls it. *)

val node : t -> Pim_graph.Topology.node

val fib : t -> Pim_mcast.Fwd.t

val igmp : t -> Pim_igmp.Router.t
(** The router's IGMP side: which leaf subnets have members. *)

val join_local : t -> Pim_net.Group.t -> unit

val leave_local : t -> Pim_net.Group.t -> unit

val on_local_data : t -> (Pim_net.Packet.t -> unit) -> unit

val send_local_data : t -> group:Pim_net.Group.t -> ?size:int -> unit -> unit

val local_source_addr : t -> Pim_net.Addr.t

val sweep : t -> unit
(** One soft-state sweep: expire prune masks, stale join timestamps and
    entries.  The router's own timer runs it every [sweep_interval]. *)

val restart : t -> unit
(** Crash-and-reboot: wipe (S,G) entries, prune state, and learned region
    adverts; configured local memberships survive (attached hosts
    re-report).  Data-driven broadcast-and-prune rebuilds forwarding state
    on the next packet; the membership advert is re-originated immediately
    with a higher sequence number. *)

(** {1 Forwarding state} *)

val apply_prune :
  t -> Pim_mcast.Fwd.entry -> iface:Pim_graph.Topology.iface -> holdtime:float -> unit
(** Cut a branch as an accepted Prune does, without the LAN override
    window: data matching the (S,G) entry stops going out [iface] for
    [holdtime] seconds. *)

val broadcast_ifaces :
  t ->
  Pim_mcast.Fwd.entry ->
  exclude:Pim_graph.Topology.iface option ->
  Pim_graph.Topology.iface list
(** Where data matching an (S,G) entry is copied under truncated
    reverse-path broadcast, in forwarding order: the local pseudo
    interface [-1] when the router itself has joined, then ascending
    every interface that is not the entry's iif or [exclude], not pruned,
    up, and either a leaf subnetwork with members or a transit link (in
    DVMRP mode, only one with child routers for the source).  Data
    forwarding walks the same set in place; this is its list view. *)

(** {1 Region membership (for dense/sparse border routers)} *)

val region_has_member : t -> Pim_net.Group.t -> bool
(** Any member of the group anywhere in the dense region, as learned from
    membership advertisements plus this router's own members.  Only
    meaningful when [advertise_members] is on. *)

val on_region_change : t -> (Pim_net.Group.t -> bool -> unit) -> unit
(** Fired when a group's region-wide member presence flips (true = first
    member appeared, false = last member gone).  Border routers use this
    to join or leave the external PIM tree on the region's behalf. *)

(** {1 Whole-topology deployment} *)

module Deployment : sig
  type router := t

  type t

  val create_static :
    ?config:config ->
    ?igmp_config:Pim_igmp.Router.config ->
    ?trace:Pim_sim.Trace.t ->
    Pim_sim.Net.t ->
    t

  val router : t -> Pim_graph.Topology.node -> router

  val total_entries : t -> int
end
