(** Figure 1: the three-domain motivating scenario.

    Three domains connected over a wide-area backbone; one group member in
    each domain, a source in domain A.  The paper uses this picture to
    argue (a) DVMRP-style dense mode periodically broadcasts data across
    the whole internet (1(b)), and (c) a single CBT tree concentrates all
    senders' traffic on the core path.  This harness runs the scenario
    under each protocol in the event simulator and reports what each one
    actually cost. *)

type result = {
  protocol : string;
  data_traversals : int;  (** data-packet link transmissions network-wide *)
  control_traversals : int;
  max_link_flows : int;  (** data transmissions on the busiest link *)
  deliveries : int;  (** packets handed to the three members *)
  state_entries : int;  (** multicast forwarding entries at end of run *)
}

val plan : packets:int -> interval:float -> Dsl.context * Dsl.program
(** The scenario as one program for every protocol, with its resolved
    context.  The program declares everything it runs on ([topology
    three-domains], members, RP and source), so its text replays alone. *)

val row : string -> Dsl.outcome -> result
(** The labelled row of one {!Dsl.run} of the {!plan}. *)

val run : ?packets:int -> ?interval:float -> unit -> result list
(** Runs DVMRP dense mode, PIM-SM on the shared tree only, PIM-SM with SPT
    switching, and CBT over the identical scenario (default: 40 packets,
    one per second — long enough for pruned DVMRP branches to grow back at
    least once with the fast timer scale).
    @raise Invalid_argument if [packets < 0]. *)

val pp_results : Format.formatter -> result list -> unit
