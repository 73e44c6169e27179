(** Global invariant checker for multicast deployments.

    The oracle watches the whole network from outside the protocols: it
    taps {!Net.on_deliver} to verify {b loop freedom} on every probe
    packet as it flows, collects per-probe delivery reports to find
    {b blackholes} ({!check_blackhole}), and accepts protocol-specific state checks ({!run_check}) for
    the invariants only the deployment can phrase — stale oifs, iif/RPF
    consistency, orphaned state.  Violations accumulate with their
    virtual timestamps; a chaos run fails if any are present.

    The oracle is protocol-agnostic: the caller supplies [probe_id] to
    say which packets are probes (e.g. native multicast data but not
    Register/Encap tunnel copies, which legitimately re-traverse
    links). *)

type violation = {
  time : float;  (** virtual time the violation was detected *)
  invariant : string;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t

val create :
  ?max_copies:int ->
  Net.t ->
  probe_id:(Pim_net.Packet.t -> int option) ->
  t
(** Install the on-wire loop-freedom tap: a probe packet traversing any
    single link more than [max_copies] times (default 1 — correct for
    point-to-point topologies, where a tree uses each link once) is a
    violation.  [probe_id] returns a stable identifier (e.g. the data
    sequence number) for packets subject to tracking, [None] for
    everything else. *)

val reset_probes : t -> unit
(** Start a new probe epoch: forget per-probe traversal counts and
    delivery reports (violations are kept).  Call before a measurement
    burst so earlier traffic — including duplicates that are legitimate
    during reconvergence, like SPT-switchover overlap — does not bleed
    into the checked window. *)

val checkpoint : t -> max_copies:int -> unit
(** Begin a quiet-period measurement epoch in one step: set the
    duplication bound to [max_copies] and {!reset_probes}.  During active
    churn a packet in flight across an RPF change can legitimately cross
    one link twice, so a run creates the oracle with a looser bound that
    catches only sustained duplication (a real loop revisits links
    without bound) and checkpoints to the protocol's strict bound before
    its quiet-period probes — the scenario DSL's [checkpoint] step.
    @raise Invalid_argument if [max_copies < 1]. *)

val note_received : t -> node:Pim_graph.Topology.node -> probe:int -> unit
(** Report that [node]'s local member received probe [probe] (wired to
    the routers' local-data callbacks by the experiment). *)

val record : t -> invariant:string -> string -> unit
(** Record a violation found by the caller. *)

val run_check : t -> invariant:string -> (unit -> string list) -> unit
(** Run a state check returning one detail string per violation found
    (empty list = invariant holds) and record the results. *)

val check_blackhole :
  t -> source:Pim_graph.Topology.node -> members:Pim_graph.Topology.node list -> probes:int list -> unit
(** Record a ["blackhole"] violation for every member that is reachable
    from [source] in the {e live} topology (BFS over up links and nodes)
    yet received none of the probe window [probes].  Weaker than
    per-probe reachability — it fires only when routing state eats an
    entire convergence window — and exactly the complement of the
    loop-freedom tap: one invariant catches packets that multiply, this
    one catches packets that vanish. *)

val violations : t -> violation list
(** All violations in detection order. *)

val pp : Format.formatter -> t -> unit
