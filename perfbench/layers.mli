(** The simulator's layers, driven and measured from outside.

    Each function here makes the same public calls an entry point
    ({!Pim_exp.Workload.run}, {!Pim_exp.Chaos.run}) makes, in the same
    order, and times them.  Nothing inside the program is instrumented:
    protocol handler time comes from two {!Pim_sim.Net.set_handler} hooks
    per router, one installed before the deployment and one after it. *)

type values = (string * float) list
(** Per-layer metric name to value, names as in [BENCHMARK.json]. *)

(** {1 Zap replays} *)

val zap_setup : Pim_exp.Workload.spec -> unit
(** The set-up calls of {!Pim_exp.Workload.run}: schedule, topology,
    network, deployment (including its unicast RIB).  Stops before the
    first simulated event. *)

type counts = { node_joins : int; traversals : int; entries_end : int }
(** Work counts a traced replay must share with the untraced report:
    protocol-level joins, control + data link traversals in
    [\[0, duration)], and protocol state entries at the end. *)

val report_counts : Pim_exp.Workload.report -> counts

type replay = {
  layers : values;
  counts : counts;
  total_s : float;  (** wall time of the whole traced replay *)
  accounted_s : float;  (** sum of the named layers' self times *)
}

val zap_replay : Pim_exp.Workload.spec -> replay
(** Simulate exactly what {!Pim_exp.Workload.run} simulates (same
    schedule, topology, deployment, source timing and window events) with
    every layer boundary timed.  Emits [transit_stub.*], [workload.*],
    [stack.*], [router.handle_*], [router.<protocol>.handle_s],
    [engine.*], [engine_net.self_s], [net.*], [fwd.entries_end],
    [router.spt_switches] and [oracle.*]. *)

val uses_static : Pim_exp.Stack.protocol -> bool
(** Whether the protocol's {!Pim_exp.Stack} deployment builds a
    {!Pim_routing.Static} RIB (every protocol but MOSPF). *)

val static_probe : ?refreshes:int -> Pim_graph.Topology.t -> Probe.cost * float
(** One isolated {!Pim_routing.Static.create} on a fresh network over the
    topology, plus the median wall time of [refreshes] (default 0, giving
    [0.]) {!Pim_routing.Static.refresh} calls on it. *)

val zap_topology : Pim_exp.Workload.spec -> Pim_graph.Transit_stub.t
(** The topology {!Pim_exp.Workload.run} replays on. *)

(** {1 Chaos} *)

val chaos_setup : nodes:int -> seed:int -> unit
(** The PIM-SM set-up calls of a transit-stub {!Pim_exp.Chaos.run} with
    default settings: topology, members, fault schedule, network, static
    RIB and deployment. *)

val chaos_topology : nodes:int -> prng:Pim_util.Prng.t -> Pim_graph.Transit_stub.t
(** The topology {!Pim_exp.Chaos.run} builds for [`Transit_stub], drawn
    first from the stream [Prng.create seed]. *)

val link_changes : Pim_graph.Topology.t -> Pim_sim.Fault.event list -> int
(** Estimated link notifications a fault schedule causes: one per link
    state change, the degree of a crashed node twice (down, up), and the
    links a partition cuts twice (cut, heal).  An estimate: overlapping
    faults on one link notify less. *)
