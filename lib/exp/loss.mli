(** Experiment E8 — robustness to control-message loss (footnote 4).

    "PIM uses periodic refreshes as its primary means of reliability.
    This approach reduces the complexity of the protocol and covers a
    wide range of protocol and network failures in a single simple
    mechanism" — versus CBT's "explicit hop-by-hop mechanisms to achieve
    reliable delivery of control messages".

    Control frames (joins, prunes, registers' headers, echoes, acks —
    everything except multicast data) are dropped independently with a
    swept probability; data frames are untouched so delivery gaps can
    only come from broken trees.  Both protocols must keep delivering:
    PIM because the next periodic refresh repairs whatever was lost, CBT
    because its join handshake is retransmitted.  The interesting
    difference is the cost column: PIM's control rate is {e constant} in
    the loss rate (refreshes happen anyway), while CBT's grows with the
    retransmissions.

    Each loss rate's run is a {!Dsl.program} ({!plan}): a whole-run
    [loss R control-only=on seed=N] step, the joins, [advance 30], the
    stream, and a closing [mark] whose control and dropped counts
    {!row} reads. *)

type row = {
  protocol : string;
  loss : float;
  deliveries : int;
  expected : int;
  control_traversals : int;
  control_dropped : int;
}

val plan : seed:int -> packets:int -> float -> Dsl.context * Dsl.program
(** One loss rate's program for both protocols: a 25-router random
    topology with 4 members (the first is the RP) and a source, all
    drawn from [seed]; control frames lost from a PRNG of [seed + 1];
    [packets] at 1 Hz from t=30, the run ending 30 s after the stream. *)

val row : loss:float -> packets:int -> Dsl.program -> Dsl.outcome -> row
(** The report row of one {!Dsl.run} of a {!plan}ned program. *)

val run : ?loss_rates:float list -> ?packets:int -> seed:int -> unit -> row list
(** Defaults: loss rates [0.; 0.1; 0.25; 0.4], 60 packets.  PIM-SM
    (never switching to the SPT) then CBT at each rate. *)

val pp_rows : Format.formatter -> row list -> unit
