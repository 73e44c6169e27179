(** Differential chaos experiment: one seeded fault schedule, replayed
    verbatim against PIM sparse mode, PIM dense mode, CBT and MOSPF.

    Each protocol is deployed through {!Stack.create_many} and gets an
    identical topology, member set, source and {!Pim_sim.Fault} schedule,
    a steady data stream, and a {!Pim_sim.Oracle} watching the wire.
    After the last fault heals and a per-protocol settle time
    ({!Stack.settle_hint}) passes, a probe burst checks loop freedom
    and receiver reachability, protocol-specific state checks run (PIM:
    iif/RPF consistency and stale-oif detection; MOSPF: domain-wide
    membership sync), and after all members leave an orphaned-state
    check verifies the state decays to the protocol's residual floor
    (CBT's core legitimately keeps its tree entry).

    The per-protocol rows quantify what the paper argues qualitatively:
    soft state (PIM, section 3.8) reconverges via refresh alone, dense
    mode pays broadcast-and-prune duplication for fast healing, CBT's
    hard state waits out [parent_timeout] before repair, and MOSPF
    resyncs by reflooding LSAs. *)

type row = {
  protocol : string;
  deliveries : int;  (** distinct (packet, receiver) deliveries *)
  expected : int;  (** packets sent x receivers *)
  dup_deliveries : int;  (** duplicate copies members received *)
  max_gap : float;  (** worst per-receiver silence, in send-time terms *)
  mean_convergence : float;
      (** fault onset to first send every member received, averaged *)
  max_convergence : float;
  churn_control : int;  (** control traversals during the fault window *)
  total_control : int;
  restarts : int;  (** node crash/restart cycles in the schedule *)
  residual_entries : int;  (** state left after members leave and timers run *)
  violations : Pim_sim.Oracle.violation list;
}

type report = {
  seed : int;
  schedule : Pim_sim.Fault.event list;
  rows : row list;
}

val run :
  ?nodes:int ->
  ?degree:float ->
  ?receivers:int ->
  ?events:int ->
  ?fault_window:float ->
  ?mean_outage:float ->
  ?topology:[ `Random | `Transit_stub ] ->
  ?fault:[ `Random | `Rp_crash ] ->
  ?rp_strategy:string ->
  ?protocols:string list ->
  seed:int ->
  unit ->
  report
(** Defaults: 30 nodes, degree 4, 5 receivers, 8 fault events over a
    40 s window, a [`Random] topology, [`Random] faults, the ["static"]
    RP strategy, all four protocols.  Deterministic for a given seed.

    [`Transit_stub] builds a two-level {!Pim_graph.Transit_stub}
    topology sized to roughly [nodes] routers (2000 maps exactly onto
    50 transit routers with three 13-router stubs each), with receivers
    placed on non-gateway stub routers; [degree] is ignored.  This is
    the multi-thousand-router scale configuration.

    [fault:`Rp_crash] replaces the random schedule with
    {!Pim_sim.Fault.targeted_schedule} aimed at the placed RP nodes —
    the worst-case outage for a shared-tree protocol — and defaults
    [protocols] to [["PIM-SM"]], the only protocol consuming the RP
    placement (CBT keeps its legacy member-homed core).

    [rp_strategy] selects how PIM-SM's RPs are placed and installed:
    ["static"] (the legacy first-member RP; under rp-crash, the first
    two non-endpoint routers so targets stay distinct from protected
    endpoints), any {!Pim_core.Placement.named} strategy (["random"],
    ["center"], ["locality"], ["vns"]) installed as static
    configuration, or ["bsr"], which installs {e no} static mapping at
    all: a {!Pim_core.Bsr} election over a centered placement's
    candidate roles supplies the mapping dynamically, crashed agents
    restart alongside their routers, and the PIM settle time grows by
    {!Pim_core.Bsr.failover_budget} plus the RP-reachability timeout.

    [protocols] restricts the run to the named subset of
    [["PIM-SM"; "PIM-DM"; "CBT"; "MOSPF"]], preserving that canonical
    row order — large scale runs exercise one protocol at a time.

    @raise Invalid_argument before simulating anything when a parameter
    is unusable: a [`Random] topology of fewer than 2 nodes, no
    receivers, more receivers than stub routers, a negative [events],
    or an unknown protocol or RP strategy. *)

val total_violations : report -> int
(** Zero means every invariant held for every protocol — the pass/fail
    verdict of a chaos run. *)

val pp_report : Format.formatter -> report -> unit
