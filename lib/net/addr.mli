(** IPv4-style 32-bit addresses.

    The simulator does not parse real packets, but it keeps faithful IPv4
    addressing so that unicast routing tables, RPF checks, and G-to-RP
    mappings work on the same kind of identifiers the paper uses.

    Conventions used throughout the repository:
    - router [i] owns the address [10.0.hi.lo] where [hi.lo] encodes [i];
    - host [k] attached to router [i] lives on the stub subnet
      [10.128+hi.lo.k];
    - multicast groups live in [224.0.0.0/4] (see {!Group}). *)

type t
(** A 32-bit address.  Total order and equality are structural. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val of_int32 : int32 -> t

val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d].  Each octet must be in
    [\[0, 255\]]. *)

val of_string : string -> t option
(** Parse dotted-quad notation. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val router : int -> t
(** [router i] is the canonical address of simulated router [i]
    (0 <= i < 65536). *)

val router_index : t -> int option
(** Inverse of {!router}; [None] for non-router addresses. *)

val host : router:int -> int -> t
(** [host ~router k] is host [k] (1 <= k <= 255) on the stub subnet of
    [router]. *)

val host_router_index : t -> int option
(** For a host address, the index of the router whose stub subnet it lives
    on. *)

val host_router_index_exn : t -> int
(** {!host_router_index} without the option, for per-packet tests.
    @raise Not_found for an address that is not a host's. *)

val owner_index : t -> int
(** The router a unicast address names ({!router_index}) or serves as a
    host's ({!host_router_index}), -1 for neither: both without an
    option, for per-packet routing lookups. *)

val is_multicast : t -> bool
(** True for addresses in 224.0.0.0/4. *)

val all_pim_routers : t
(** 224.0.0.2 — the link-local group used for hop-by-hop PIM messages on
    multi-access subnetworks (paper section 3.7). *)
