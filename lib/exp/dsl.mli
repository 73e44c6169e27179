(** Declarative operational-scenario language ([.scn]).

    A scenario is a short text program — the operational vocabulary FRR
    topotests exercise against real deployments (RP change, interface
    shut/no-shut at the first/last hop, RPT-vs-SPT divergence,
    partition/heal), here runnable against any of the five protocol
    stacks under full observability (typed trace, capture, metrics) with
    the invariant oracle watching throughout.

    Grammar (one directive or step per line; [#] comments; options are
    [key=value] tokens; node positions accept numbers or the symbols
    [members] / [source] / [rp], resolved against the declared roles):

    {v
scenario NAME
topology line N
topology random nodes=N degree=F seed=N
topology derived seed=N members=N    # the qcheck property's derivation
topology transit-stub nodes=N seed=N # drawn as the chaos harness draws it
protocol PIM-SM|PIM-DM|DVMRP|CBT|MOSPF
group N                              # group index (default 5)
rp N [N ...]                         # ordered RP list / CBT core (first)
rp-election on                       # PIM-SM: elect the rp list via BSR;
                                     # source and members are never C-BSRs
members N [N ...]
source N
config switchover-fallback=on|off

join NODES          leave NODES
send NODE [count=K] [interval=F]
advance T
fail-link A B       heal-link A B
fail-node U         restart U
fail-link A B for=D                  # down for D seconds, then restored
fail-node U for=D                    # down for D seconds, then restarted
partition NODES     heal
loss R for=D        jitter A for=D   # loss rate / delay jitter burst
drop-next A B       dup-next A B     delay-next A B by=F
at T STEP           # schedule STEP at absolute time T (not advance)
mark LABEL          # record the time and control traversals so far
checkpoint          # digest global state, start a strict probe epoch
assert-delivery     # last send window: exactly-once to every member, no blackholes
assert-reachable    # last send window: at least once to every member, no blackholes
assert-no-loops     # structural state checks (wire loops are checked continuously)
assert-mroute U count>=K|count<=K|count=K|contains=STR
assert-drained      # state entries at/below the protocol's residual floor
    v}

    Execution is sequential over a virtual-time cursor: [advance] runs
    the engine forward, every other step acts at the current instant
    ([send] schedules its packets from the current instant onward).
    [at T STEP] does not wait: when the runner reaches it, STEP is
    scheduled at T (no earlier than the cursor), so timed steps fire in
    time order and, at one instant, in the order the runner reached them;
    [at T send] schedules all its packets at once, from T onward.  After
    the last step the engine runs on until every timed step has fired
    and the last send has had 10 s to deliver.  The
    composite outages and bursts restore themselves through
    {!Pim_sim.Fault.apply}, so nested bursts end when the last one does.
    Scenarios are single-source: all [send] steps must name the same
    node (probe identity is the per-source data sequence number).
    Assertion failures are recorded as oracle violations — a scenario
    passes iff its outcome has no violations. *)

type node_ref = Node of int | Members | Source | Rp

type topology_spec =
  | Line of int
  | Random of { nodes : int; degree : float; seed : int }
  | Derived of { seed : int; member_count : int }
      (** [Scenario.run]'s seed derivation: nodes, degree, members, RP
          and source all drawn from one PRNG stream. *)
  | Transit_stub of { nodes : int; seed : int }
      (** {!Pim_graph.Transit_stub.generate} at
          {!Pim_graph.Transit_stub.sizes}[ ~nodes], default link costs and
          delays, from a fresh PRNG of [seed] — the chaos harness's draw. *)

type mroute_pred =
  | Count_at_least of int
  | Count_at_most of int
  | Count_eq of int
  | Contains of string

type step =
  | Join of node_ref list
  | Leave of node_ref list
  | Send of { from : node_ref; count : int; interval : float }
  | Advance of float
  | Fail_link of { a : node_ref; b : node_ref; down_for : float option }
      (** [fail-link A B]; with [for=D] a {!Pim_sim.Fault.Link_flap} *)
  | Heal_link of node_ref * node_ref
  | Fail_node of { node : node_ref; down_for : float option }
      (** [fail-node U]; with [for=D] a {!Pim_sim.Fault.Node_crash} *)
  | Restart of node_ref
  | Partition of node_ref list
  | Heal
  | Drop_next of node_ref * node_ref
  | Dup_next of node_ref * node_ref
  | Delay_next of { a : node_ref; b : node_ref; by : float }
  | Checkpoint
  | Assert_delivery
  | Assert_no_loops
  | Assert_mroute of { node : node_ref; pred : mroute_pred }
  | Assert_drained
  | Loss of { rate : float; duration : float }
  | Jitter of { amplitude : float; duration : float }
  | Mark of string
  | Assert_reachable
  | At of float * step  (** never [Advance] or another [At] *)

type program = {
  name : string;
  topology : topology_spec;
  protocol : Stack.protocol option;  (** default; [run ?protocol] overrides *)
  group : int;  (** {!Pim_net.Group.of_index} of the one group *)
  rp : int list;
  rp_election : bool;
  members_decl : int list;
  source_decl : int option;
  switchover_fallback : bool option;
  steps : step list;
}

val parse : string -> (program, string) result
(** Parse scenario text; the error names the offending line. *)

val parse_file : string -> (program, string) result
(** {!parse} the file's contents; [Error] with the system's reason (no
    path prefix) when it cannot be read. *)

val to_string : program -> string
(** Canonical text rendering; [parse (to_string p)] round-trips, numbers
    included (each prints as [%g] when that reads back exactly, else with
    the fewest digits that do).  The explorer writes counterexamples
    through this. *)

type context = {
  topo : Pim_graph.Topology.t;
  nodes : int;
  decl_members : int list;  (** the [members] symbol *)
  source0 : int option;  (** the [source] symbol *)
  rp_nodes : int list;  (** ordered; head is the [rp] symbol *)
}

val context : ?topo:Pim_graph.Topology.t -> program -> context
(** Build the program's topology and resolve its declared roles without
    running it — the explorer uses this to derive its action alphabet.
    [topo], when given, is used instead of drawing the declared
    topology again; it must be that topology (not checked). *)

type probe = {
  seq : int;
  sent_at : float;
  received_by : int list;  (** members that got it at least once, ascending *)
}

type mark = {
  label : string;
  at : float;
  control : int;  (** control-packet link traversals so far ({!Metrics}) *)
}

type outcome = {
  protocol : string;
  nodes : int;
  members : int list;  (** membership when the run ended *)
  source : int option;
  digests : string list;  (** one per [checkpoint], in order *)
  violations : Pim_sim.Oracle.violation list;
  deliveries : int;
  duplicates : int;
  residual : int;
  probes : probe list;  (** every data packet some member received, by seq *)
  marks : mark list;  (** one per [mark] step, in firing order *)
  ok : bool;  (** no violations *)
}

val run :
  ?topo:Pim_graph.Topology.t ->
  ?trace_file:string ->
  ?capture_file:string ->
  ?metrics_file:string ->
  ?protocol:Stack.protocol ->
  ?switchover_fallback:bool ->
  program ->
  outcome
(** Execute the program.  Deterministic: the same program (and protocol)
    always yields byte-identical trace/capture files.  [?protocol] and
    [?switchover_fallback] override the program's directives.  [?topo]
    as for {!context}.  Routers emit trace events only when [trace_file]
    is given, and control traffic is tapped only for a program with a
    [mark] step.

    @raise Invalid_argument on semantic errors (no protocol, unknown
    node, no link between the named endpoints, a second sending node, an
    assertion over a send window before any [send], an [at] before the
    cursor). *)

val pp_outcome : Format.formatter -> outcome -> unit
