(** Deterministic replay and shrinking of randomized PIM-SM scenarios.

    The qcheck property "random scenario: complete, duplicate-free,
    drains" (test/test_pim.ml) derives a whole scenario — topology,
    member set, RP, source, send schedule — from a single integer seed.
    This module reproduces that derivation outside the property so a
    failing case can be replayed on demand under full observability
    (typed trace, packet capture, metrics registry), and shrunk to a
    minimal member set and packet count with a delta-debugging pass.

    This is the harness that diagnosed the RP-tree/SPT switchover loss
    (the former ROADMAP open item, seed=56517): replaying the
    counterexample with a capture shows the shared-tree copies of
    pre-join-chain packets arriving at diverging routers after their SPT
    bit flipped, where the literal incoming-interface check dropped them.
    [pimsim trace record] exposes the same replay on the command line,
    and test/test_replay.ml pins the shrunk scenario as a regression
    test. *)

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
  ok : bool;  (** [wrong = \[\]] and [residual_entries = 0] *)
}

val run :
  ?capture_file:string ->
  ?trace_file:string ->
  ?metrics_file:string ->
  spec ->
  outcome
(** Replay the scenario.  [capture_file] writes a JSONL packet capture
    ({!Pim_sim.Capture}), [trace_file] a JSONL typed-event trace,
    [metrics_file] the metrics-registry JSON — all deterministic, so two
    runs of the same spec produce byte-identical files.

    @raise Invalid_argument when [member_count] is below 1 or above the
    derived network's size. *)

val shrink : spec -> spec
(** Delta-debug a failing spec: greedily drop members and lower the
    packet count while {!run} keeps failing ([ok = false]).  Returns the
    last failing spec (the input itself if it doesn't fail, making
    [shrink] idempotent on passing specs). *)
