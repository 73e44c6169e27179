(** Per-link traffic accounting for protocol experiments.

    Attaches to the simulated network and classifies every link traversal
    as data or control — the bandwidth component of the paper's overhead
    definition (state, control-message processing, data-packet
    processing). *)

type t

val is_data : Pim_net.Packet.t -> bool
(** The classifier: multicast data, register-encapsulated data, and CBT
    tunnel-encapsulated data all count as data; everything else is
    control. *)

val attach : Pim_sim.Net.t -> t
(** Counters start at zero from the moment of attachment. *)

val data_traversals : t -> int
(** Total data-packet link transmissions (registers' encapsulated data
    counts as data). *)

val control_traversals : t -> int

val data_bytes : t -> int

val control_bytes : t -> int

val max_link_data : t -> int
(** The busiest link's data count — the traffic-concentration measure of
    Figure 2(b). *)
