(** Convenience for standing up PIM sparse mode on every router of a
    topology: one {!Router} per node, all sharing a unicast substrate and
    one RP-set configuration.  Used by the examples, the integration tests
    and the experiment harnesses. *)

type t

val create :
  ?config:Config.t ->
  ?igmp_config:Pim_igmp.Router.config ->
  ?trace:Pim_sim.Trace.t ->
  ?bsr:Bsr.t ->
  net:Pim_sim.Net.t ->
  ribs:(Pim_graph.Topology.node -> Pim_routing.Rib.t) ->
  rp_set:Rp_set.t ->
  unit ->
  t
(** [bsr] connects every router to an already-deployed election
    subsystem ({!Bsr.deploy} on the same [net]): each router consults the
    node's elected group-to-RP mapping before the static [rp_set]. *)

val create_static :
  ?config:Config.t ->
  ?igmp_config:Pim_igmp.Router.config ->
  ?trace:Pim_sim.Trace.t ->
  Pim_sim.Net.t ->
  rp_set:Rp_set.t ->
  t
(** Like {!create} with an oracle {!Pim_routing.Static} substrate built on
    the spot. *)

val router : t -> Pim_graph.Topology.node -> Router.t

val routers : t -> Router.t array

val net : t -> Pim_sim.Net.t

val total_entries : t -> int
(** Multicast forwarding entries across all routers — the state metric of
    the paper's overhead definition. *)

val export_metrics : t -> Pim_util.Metrics.t -> unit
(** Snapshot eleven of every router's {!Pim_sim.Net.counters} into the
    registry as [router_*] counters labelled [node] — [jp_msgs_sent],
    [joins_sent], [prunes_sent], [registers_sent], [rp_reach_sent],
    [data_forwarded], [data_dropped_iif], [data_dup_suppressed],
    [data_dropped_no_state], [data_delivered_local] and [spt_switches] —
    plus one [router_group_entries]
    gauge per (router, group) with live forwarding state.  Idempotent:
    re-exporting updates the instruments in place rather than
    double-counting, so it can be called right before each
    {!Pim_util.Metrics.to_json} dump.  [unicast_forwarded] and
    [rp_failovers] were never exported and stay out: a new row would
    change every export, including the metrics digest the golden suite
    pins. *)

val pp_shared_tree : t -> Pim_net.Group.t -> Format.formatter -> unit -> unit
(** Render the group's RP-rooted shared tree as indented ASCII, derived
    from the live "(*,G)" entries (each router hangs under the neighbor
    its incoming interface points at).  Orphan branches — e.g. mid-failover
    — are printed under their own roots. *)
