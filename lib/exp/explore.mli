(** Bounded forward search over the scenario-DSL action alphabet.

    Starting from a base scenario (topology, roles, initial joins), the
    explorer enumerates perturbation sequences — composite self-healing
    faults (fail/heal the first-hop link, last-hop links, RP crash and
    restart, single-member partition) and single membership changes — up
    to a depth bound.  Each candidate program is
    the base followed by the sequence, a settle wait, an unasserted
    warm burst (the first packets into an idle sparse-mode tree ride
    the register path while expired branches rebuild — losing one is
    soft-state decay, not a bug), a state {!Stack.digest} checkpoint, a
    probe window continuing the stream, and the delivery / loop-freedom
    assertions.  States whose checkpoint digest was already
    seen are not expanded (two interleavings that converge to the same
    forwarding state explore identical futures), and the total number of
    runs is capped by a budget.

    On the first violating candidate the search stops, greedily
    delta-debugs the perturbation sequence (drop actions while the
    violation persists, then lower the probe count), and reports both
    the offending and the shrunk program — ready to be written out as
    [.scn] text via {!Dsl.to_string} and replayed under capture. *)

type action = {
  label : string;
  steps : Dsl.step list;
}

type found = {
  program : Dsl.program;  (** the full offending program *)
  shrunk : Dsl.program;  (** after delta-debugging the perturbations *)
  outcome : Dsl.outcome;  (** of the shrunk program *)
  depth : int;  (** perturbation actions in the offending sequence *)
}

type report = {
  protocol : string;
  runs : int;  (** candidate programs executed *)
  unique_states : int;  (** distinct checkpoint digests seen *)
  pruned : int;  (** candidates not expanded: digest already seen *)
  found : found option;
}

val alphabet : ctx:Dsl.context -> ?outage:float -> unit -> action list
(** The perturbation actions derived from a base scenario's roles.
    Deterministic and in a fixed order (faults, then membership). *)

val run :
  base:Dsl.program ->
  protocol:Stack.protocol ->
  ?depth:int ->
  ?budget:int ->
  ?probes:int ->
  ?interval:float ->
  ?switchover_fallback:bool ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Breadth-first search from [base] for [protocol].  [depth] bounds the
    perturbation-sequence length (default 3), [budget] the total
    candidate runs (default 500), [probes] the probe-window size
    (default 6).  [switchover_fallback] defaults to the base program's
    directive, else on.  [log] receives one-line progress notes.

    @raise Invalid_argument if [depth < 0], [budget < 1], [probes < 1]
    or [base] declares no source. *)

val pp_report : Format.formatter -> report -> unit
