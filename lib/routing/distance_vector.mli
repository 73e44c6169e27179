(** RIP-like distance-vector unicast routing.

    Runs inside the simulator: periodic full-table advertisements to
    neighbors, triggered updates on change, split horizon with poison
    reverse, and route timeout.  DVMRP extends exactly this kind of
    protocol (paper section 1.1); PIM merely reads its tables through
    {!Rib}. *)

type config = {
  period : float;  (** advertisement interval (RIP: 30 s) *)
  timeout : float;  (** route expiry when not refreshed (RIP: 180 s) *)
  infinity_metric : int;  (** unreachability sentinel (RIP: 16) *)
  triggered_delay : float;  (** damping delay before a triggered update *)
}

val default_config : config
(** period 30 s, timeout 180 s, infinity 64, triggered delay 1 s. *)

type t

val create : ?config:config -> Pim_sim.Net.t -> t
(** Starts the per-router processes: direct routes are installed
    immediately, the first advertisements are staggered across the first
    period.  Subscribes to link-change notifications. *)

val rib : t -> Pim_graph.Topology.node -> Rib.t

val metric : t -> Pim_graph.Topology.node -> Pim_graph.Topology.node -> int option
(** Current metric at router [u] toward router [d]; [None] when unknown or
    unreachable. *)

val converged : t -> against:int array array -> bool
(** True when every router's table matches the given distance matrix
    (typically each router's {!Pim_graph.Spt.single_source} distances over
    the same live network) — used by tests to assert convergence. *)

val message_count : t -> int
(** Total advertisements sent since creation (control overhead). *)
