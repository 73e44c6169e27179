(** Simulated packets.

    The payload is an extensible variant: each protocol library adds its own
    constructors (PIM join/prune, IGMP report, DVMRP prune, ...) without
    this module depending on any of them.  Byte sizes are modelled per
    message so bandwidth overhead can be accounted, even though no real
    serialization takes place. *)

type payload = ..
(** Extended by protocol libraries. *)

type payload += Raw of string  (** Opaque application data (tests). *)

type dst =
  | Unicast of Addr.t
  | Multicast of Group.t

type t = {
  src : Addr.t;
  dst : dst;
  ttl : int;
      (** the TTL at origination.  Routers forward the packet they
          received rather than a copy, so the network layer tracks a
          frame's remaining TTL ([Pim_sim.Net.ttl]), not this field. *)
  size : int;  (** modelled size in bytes, headers included *)
  payload : payload;
}

val unicast : src:Addr.t -> dst:Addr.t -> ?ttl:int -> size:int -> payload -> t
(** Build a unicast packet (default [ttl] 64). *)

val multicast : src:Addr.t -> group:Group.t -> ?ttl:int -> size:int -> payload -> t
(** Build a multicast packet addressed to [group] (default [ttl] 64). *)

val register_printer : (payload -> string option) -> unit
(** Protocol libraries register printers for their payload constructors so
    traces stay readable. *)

val payload_to_string : payload -> string
(** Render via the registered printers; the first token is the payload
    kind (e.g. ["data"], ["pim-jp"]), which the packet-capture layer
    keys on. *)

val pp : Format.formatter -> t -> unit
