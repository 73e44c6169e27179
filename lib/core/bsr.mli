(** Dynamic RP election: a bootstrap-router (BSR) mechanism.

    The paper assumes every router somehow knows the group-to-RP mapping
    and argues RP failure is survivable because "receivers simply start
    sending joins to one of the alternative RPs" (section 3.9).  This
    module supplies the discovery-and-agreement half the paper leaves
    open, modelled on the PIM-SM bootstrap mechanism:

    - {e candidate-RP advertisements}: nodes configured as candidates
      periodically unicast their records (priority, hold-time, group
      coverage) to the elected BSR;
    - {e BSR election}: candidate BSRs flood sequence-numbered bootstrap
      messages hop by hop over the live topology; higher
      (priority, address) preempts, and a crashed BSR times out after its
      hold-time, at which point the next candidate steps up;
    - {e RP-set distribution}: each bootstrap carries the BSR's current
      candidate-RP table, so every connected router converges to the same
      view and hence — via a deterministic per-group hash ranking — to
      the identical group-to-RP mapping;
    - {e soft-state expiry and fallback}: all records carry hold-times;
      when the view decays (lost floods, partitions, BSR crash) lookups
      degrade to the last non-empty mapping, so existing trees keep
      working on the last-known RP while the election recovers.

    One agent runs per node, stacked on the node's {!Pim_sim.Net} handler
    next to the PIM {!Router} (which forwards transit adverts like any
    unicast traffic).  Routers consume the elected mapping through
    {!lookup}, passed as [?rp_lookup] to {!Router.create} — see
    {!Deployment.create}.

    Each agent counts its bootstraps, adverts, election wins and mapping
    changes into the net's {!Pim_sim.Net.counters} under its own node. *)

type config = {
  bootstrap_period : float;  (** BSR origination and agent tick interval *)
  bsr_holdtime : float;  (** accepted-BSR lifetime without a fresh flood *)
  crp_holdtime : float;  (** advertised lifetime of candidate-RP records *)
}

val default : config
(** 60 s bootstrap period, 150 s hold-times (RFC-like ratios). *)

val fast : config
(** Scaled for simulation: 2.5 s period, 7.5 s hold-times. *)

val failover_budget : config -> float
(** Worst-case seconds from an RP crash until every connected router's
    mapping excludes it: one candidate hold-time plus two bootstrap
    periods.  Receivers additionally need their own re-join latency; the
    chaos harness and E2 assert recovery within this budget plus the
    router's RP-reachability timeout. *)

type role = {
  cbsr_priority : int option;
      (** [Some p]: candidate BSR with priority [p]; [None]: never BSR *)
  crp_records : (int * Pim_net.Group.t list) list;
      (** candidate-RP records to advertise, as (priority, coverage)
          pairs; an empty coverage list advertises for every group *)
}

val silent : role
(** Neither candidate BSR nor candidate RP (the default role). *)

type t

val deploy :
  ?config:config ->
  ?trace:Pim_sim.Trace.t ->
  ?forward_unicast:bool ->
  net:Pim_sim.Net.t ->
  ribs:(Pim_graph.Topology.node -> Pim_routing.Rib.t) ->
  roles:role array ->
  unit ->
  t
(** One agent per topology node.  [roles] must have exactly [n_nodes]
    entries.  [forward_unicast] (default false) makes agents
    forward transit candidate-RP adverts themselves — set it only in
    standalone deployments with no PIM routers installed, which otherwise
    provide unicast forwarding. *)

val lookup : t -> Pim_graph.Topology.node -> Pim_net.Group.t -> Pim_net.Addr.t list
(** The ranked RP list for a group as seen at [node] right now; empty
    only if no mapping was ever known there.  While the live view is
    empty (election converging, records expired) the last non-empty
    mapping is returned, so callers degrade to the last-known RP.  Also
    registers the group so subsequent mapping changes are announced as
    {!Pim_sim.Event.Rp_mapping} events. *)

val elected_bsr : t -> Pim_graph.Topology.node -> Pim_net.Addr.t option
(** The BSR [node] currently accepts, if any. *)

val mapping :
  t -> Pim_graph.Topology.node -> Pim_net.Group.t list -> (Pim_net.Group.t * Pim_net.Addr.t list) list
(** {!lookup} over a set of groups, deduplicated and in ascending group
    order (the [pimsim rp] report). *)

val restart : t -> Pim_graph.Topology.node -> unit
(** Crash-and-reboot of the node's agent: all learned election state is
    wiped; only the configured {!role} survives.  Pair with
    {!Router.restart} in chaos schedules. *)

val config : t -> config
