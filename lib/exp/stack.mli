(** Uniform adapter over the five protocol deployments.

    The chaos harness, the scenario DSL, the explorer, the workload
    harness and the protocol comparisons (fig1, overhead, groups, loss,
    churn, ablation) all need the same small surface — join/leave a
    member, inject data at a node, restart a router, count state, render
    per-node mroute state — phrased identically for PIM-SM, PIM-DM,
    DVMRP, CBT and MOSPF.  {!create_many} is the one way to deploy a
    protocol over an existing {!Pim_sim.Net}: it returns one view per
    group exposing exactly that surface, and a single-group experiment
    passes a list of one group.  Only the experiments that read PIM-SM
    internals (aggregation, failover, scenario) build a
    [Pim_core.Deployment] themselves.  {!digest} is the canonical state
    the explorer dedups on. *)

type protocol = Pim_sm | Pim_dm | Dvmrp | Cbt | Mospf

val all : protocol list
(** Canonical order — report and matrix rows follow it. *)

val to_string : protocol -> string
(** ["PIM-SM"], ["PIM-DM"], ["DVMRP"], ["CBT"], ["MOSPF"]. *)

val of_string : string -> protocol option
(** Case-insensitive; accepts the canonical names plus the obvious
    abbreviations ([sm], [pimdm], ...). *)

type t = {
  protocol : protocol;  (** {!to_string} names it in reports *)
  join : Pim_graph.Topology.node -> unit;  (** add a local member at the node *)
  leave : Pim_graph.Topology.node -> unit;
  on_data : Pim_graph.Topology.node -> (Pim_net.Packet.t -> unit) -> unit;
      (** register a local-delivery callback (register once per node —
          callbacks stack and are never removed) *)
  send_from : Pim_graph.Topology.node -> unit;  (** inject one data packet *)
  entries : unit -> int;  (** protocol state entries network-wide *)
  restart : Pim_graph.Topology.node -> unit;  (** wipe and reboot one router *)
  state_checks : (string * (unit -> string list)) list;
      (** named structural invariants (empty list = invariant holds):
          PIM-SM's {!pim_state_checks}; MOSPF's [membership-sync], that
          every live router knows every live member of every group the
          deployment serves; none for the other protocols *)
  mroute : Pim_graph.Topology.node -> string list;
      (** canonical, timer-free rendering of the node's multicast routing
          state, in a stable order — the unit the {!digest} hashes and
          [assert-mroute] matches against.  MOSPF renders one
          ["<group> members={m1,m2,...}"] line listing the members the
          router knows (none when it knows no member) *)
  max_copies : int;  (** legitimate per-link copies of one quiet-period packet *)
  residual_floor : int;  (** entries legitimately left after every member leaves *)
  spt_switches : unit -> int;
      (** cumulative RP-tree to shortest-path-tree transitions on the net:
          {!Pim_sim.Counters.total} of [Spt_switches] over
          {!Pim_sim.Net.counters}, which only PIM-SM routers count (0 for
          the other protocols).  The workload harness reads per-window
          deltas to count switchover storms.  Every other counter is read
          from the net's table directly. *)
}

type config = {
  sm : Pim_core.Config.t;  (** PIM-SM router config (SPT policy, jp_period, ...) *)
  lsa_refresh : float option;
      (** MOSPF LSA re-flood period; [None] floods only on membership
          change, so a restarted router relearns another router's
          membership only when that changes *)
}
(** The settable part of a deployment.  PIM-DM/DVMRP and CBT always run
    their fast configs (dense mode with grafts on). *)

val fast : config
(** [{ sm = Pim_core.Config.fast; lsa_refresh = Some 5. }] — the default
    of {!create_many}. *)

val create_many :
  ?placement:(Pim_net.Group.t * Pim_graph.Topology.node list) list ->
  ?rp_election:bool ->
  ?cbsr_forbidden:Pim_graph.Topology.node list ->
  ?config:config ->
  ?trace:Pim_sim.Trace.t ->
  groups:Pim_net.Group.t list ->
  net:Pim_sim.Net.t ->
  protocol ->
  (Pim_net.Group.t * t) list
(** Deploy [protocol] once under [config] (default {!fast}) on [net] and
    expose a view for every group in [groups].  [placement] maps each group to its ordered
    RP list (PIM-SM: failover order) or core (CBT: first element);
    required for both, ignored by the dense protocols and MOSPF.

    PIM-SM only: [rp_election] turns the whole placement into C-RP roles
    elected through a live BSR — each distinct RP node advertises the
    groups it is placed for, reproducing multi-RP sharding via the hash
    mapping — with the first two routers that are neither RPs nor in
    [cbsr_forbidden] (default none) as candidate BSRs.
    [config.sm]'s [switchover_fallback] gates the shared-fallback
    forwarding fix for the RP-tree/SPT switchover loss; scenarios turn it
    off to reproduce the historical bug.

    Views share the deployment: [entries], [restart], [state_checks] and
    [spt_switches] are deployment-wide and identical across views, while
    [join]/[leave]/[send_from]/[mroute] act per group and [on_data]
    callbacks only fire for that view's group.

    @raise Invalid_argument if PIM-SM or CBT is given a group without a
    placement entry, or with an empty RP list. *)

val settle_hint : ?rp_election:bool -> ?hops:int -> protocol -> float
(** Conservative virtual-seconds bound for the protocol (fast config) to
    reconverge after a healed perturbation — the wait the explorer
    inserts before each probe window, and the chaos harness (with
    [~hops:1]) before its checkpoint.  No deployment needed.  [hops]
    (default 8) bounds the tree depth the recovery may have to walk; it
    only matters for CBT, whose hard-state teardown cascades one
    parent_timeout per level (paper footnote 4). *)

val place_rps :
  topo:Pim_graph.Topology.t ->
  group:Pim_net.Group.t ->
  endpoints:Pim_graph.Topology.node list ->
  seed:int ->
  string ->
  Pim_graph.Topology.node list option
(** The ordered RP nodes {!Pim_core.Placement} picks for one group whose
    sources and receivers are [endpoints], never placing an RP on an
    endpoint.  The name is a {!Pim_core.Placement.named} strategy, or
    ["bsr"] for the two centered candidates an election chooses between;
    [None] for any other name. *)

val drain_hint :
  topo:Pim_graph.Topology.t -> source:Pim_graph.Topology.node -> protocol -> float
(** Virtual seconds the protocol's state (fast config) needs to decay
    after every member left, before leftover state above
    [residual_floor] counts as orphaned — the chaos harness's wait before
    [assert-drained].  Soft state tears down serially: PIM-SM's bound
    grows with the source's eccentricity in [topo], one oif holdtime per
    hop. *)

val pim_state_checks :
  net:Pim_sim.Net.t ->
  rib:(Pim_graph.Topology.node -> Pim_routing.Rib.t) ->
  fib:(Pim_graph.Topology.node -> Pim_mcast.Fwd.t) ->
  (string * (unit -> string list)) list
(** The PIM structural invariants ([iif-consistency], [stale-oif]) over
    any deployment exposing per-node RIBs and FIBs — the PIM-SM views'
    [state_checks], and the chaos tests' checks over a hand-built
    deployment. *)

val digest : t -> net:Pim_sim.Net.t -> members:Pim_graph.Topology.node list -> string
(** Hex MD5 of the canonical global state: every node's {!field-mroute}
    lines (or its down marker), the link-up bitmap, and the sorted member
    set.  Timer-free by construction, so two interleavings that converge
    to the same forwarding state collide — the explorer's dedup key. *)
