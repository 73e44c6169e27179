(** Deterministic replay and shrinking of randomized PIM-SM scenarios.

    The qcheck property "random scenario: complete, duplicate-free,
    drains" (test/test_pim.ml) derives a whole scenario — topology,
    member set, RP, source, send schedule — from a single integer seed.
    This module writes that scenario as a {!Dsl.program} ({!program}):
    the [topology derived] directive draws the topology and roles (the
    derivation's one copy, {!Dsl.context}), explicit [join]/[leave]
    steps name the receivers, two [send] windows carry the stream, and
    [assert-delivery]/[assert-drained] state the property.  {!run}
    replays it through {!Dsl.run}, the runner chaos and [pimsim scn run]
    use, under full observability (typed trace, packet capture, metrics
    registry), and {!shrink} delta-debugs a failing spec to a minimal
    member set and packet count.

    This is the harness that diagnosed the RP-tree/SPT switchover loss
    (the former ROADMAP open item, seed=56517): replaying the
    counterexample with a capture shows the shared-tree copies of
    pre-join-chain packets arriving at diverging routers after their SPT
    bit flipped, where the literal incoming-interface check dropped them.
    [pimsim trace record] exposes the same replay on the command line,
    examples/scenarios/trace-record-56517.scn is its program, and
    test/test_replay.ml pins the shrunk scenario as a regression test. *)

type spec = {
  seed : int;  (** scenario seed (the qcheck-generated first component) *)
  member_count : int;  (** group size (the second component) *)
  members_override : int list option;
      (** replace the derived member set (must be a subset of nodes);
          used by shrinking *)
  packets : int;  (** data packets the source sends (property: 30) *)
  check_from : int;
      (** first sequence number of the steady-state window in which every
          member must receive every packet exactly once (property: 22) *)
  switchover_fallback : bool;
      (** [Config.switchover_fallback] for the run; [false] reproduces
          the pre-fix drop behaviour *)
}

val default_spec : seed:int -> member_count:int -> spec
(** The property's exact parameters: 30 packets, window from 22,
    fallback on. *)

type outcome = {
  nodes : int;
  members : int list;
  rp : int;
  source : int;
  wrong : (int * int * int) list;
      (** (receiver, seq, copies) for every steady-state-window delivery
          count that is not exactly 1 *)
  residual_entries : int;  (** multicast state left after everyone leaves *)
  dup_suppressed : int;  (** switchover duplicates suppressed network-wide *)
  ok : bool;
      (** [wrong = \[\]] and [residual_entries = 0]: with [packets <=
          check_from] the checked window is empty and [ok] only says the
          state drained *)
}

val program : spec -> Dsl.program
(** The scenario as a program: [topology derived seed= members=],
    [protocol PIM-SM], [group 1], [config switchover-fallback=];
    [join] the members, [advance 10]; [send source] the packets before
    [check_from] and, timed to follow them, the [check_from ..
    packets-1] window (0.5 s apart); [advance 50], [assert-delivery]
    (omitted when that window is empty), [leave] the members,
    [advance 160], [assert-drained].  No [join]/[leave] when the member
    set is empty.  Draws the topology to name the derived members.

    @raise Invalid_argument when [member_count] is below 1 or above the
    derived network's size, or [packets] is negative. *)

val run :
  ?capture_file:string ->
  ?trace_file:string ->
  ?metrics_file:string ->
  spec ->
  outcome
(** Replay {!program} through {!Dsl.run} and read the outcome off it:
    [wrong] from the per-member copy counts of the checked window,
    [residual_entries] from the run's residual, [dup_suppressed] from
    the net's counters.  [capture_file] writes a JSONL packet capture
    ({!Pim_sim.Capture}), [trace_file] a JSONL typed-event trace,
    [metrics_file] the metrics-registry JSON — all deterministic, so two
    runs of the same spec produce byte-identical files.

    @raise Invalid_argument when [member_count] is below 1 or above the
    derived network's size, [packets] is negative, or an override names
    a node outside the network. *)

val shrink : spec -> spec
(** Delta-debug a failing spec: greedily drop members and lower the
    packet count while {!run} keeps failing ([ok = false]).  Returns the
    last failing spec (the input itself if it doesn't fail, making
    [shrink] idempotent on passing specs). *)
