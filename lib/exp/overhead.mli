(** Experiment E1 — the scaling claim of section 1.2.

    On one random wide-area topology, a single group whose membership
    density sweeps from very sparse to dense, a single active source.
    For each protocol we count, over an identical sending schedule:

    - data-packet link transmissions (flooding cost shows up here),
    - control-message link transmissions (membership broadcast shows up
      here),
    - multicast state entries across all routers,
    - packets delivered to members (sanity: must equal packets x members).

    The paper's argument is that dense-mode protocols (DVMRP/PIM-DM) pay
    data-flooding costs inversely proportional to density, MOSPF pays
    membership-broadcast and Dijkstra costs everywhere, while PIM's costs
    track the tree that is actually in use. *)

type row = {
  protocol : string;
  fraction : float;  (** members / routers *)
  members : int;
  data_traversals : int;
  control_traversals : int;
  state_entries : int;
  deliveries : int;
      (** PIM may deliver slightly fewer than expected: packets in flight
          on the register/shared path when an on-path router sets its SPT
          bit fail its incoming-interface check — the transition loss
          section 3.3 of the paper says the SPT bit "minimizes" (not
          eliminates).  The window is a few link delays wide and our
          simulated links are slow (1 s), so whole packets fall in it. *)
  expected_deliveries : int;
  spf_runs : int;  (** MOSPF only; 0 elsewhere *)
}

val plan :
  nodes:int ->
  degree:float ->
  packets:int ->
  interval:float ->
  seed:int ->
  float ->
  Dsl.context * Dsl.program
(** One fraction's program for every protocol; its topology and roles
    are all declared, so its text replays on its own. *)

val row : fraction:float -> packets:int -> string -> Dsl.program -> Dsl.outcome -> row
(** The labelled row of one {!Dsl.run} of a {!plan}ned program. *)

val run :
  ?nodes:int ->
  ?degree:float ->
  ?packets:int ->
  ?interval:float ->
  ?fractions:float list ->
  seed:int ->
  unit ->
  row list
(** Defaults: 50 nodes, degree 4, 30 packets at 1 Hz, fractions
    [0.04; 0.1; 0.2; 0.4; 0.8].
    @raise Invalid_argument if [packets < 0]. *)

val pp_rows : Format.formatter -> row list -> unit
