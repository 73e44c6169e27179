(** Multicast group addresses.

    A group is an address in 224.0.0.0/4 (class D).  The type is distinct
    from {!Addr.t} so that forwarding code cannot confuse a group with a
    unicast source or RP address; explicit conversions are provided. *)

type t

val compare : t -> t -> int
(** Structural order on the underlying address. *)

val equal : t -> t -> bool

val hash : t -> int

val of_addr : Addr.t -> t option
(** [of_addr a] is [Some g] iff [a] is a class-D address. *)

val of_addr_exn : Addr.t -> t
(** @raise Invalid_argument if the address is not multicast. *)

val to_addr : t -> Addr.t
(** The group as a plain address (for packet destinations). *)

val of_index : int -> t
(** [of_index k] is the [k]-th simulated group address (in 225.0.0.0/8,
    avoiding the reserved link-local block 224.0.0.0/24).
    0 <= k < 2^24. *)

val index : t -> int option
(** Inverse of {!of_index}. *)

(** Dense integer ids for groups.

    A simulation touches a tiny, stable set of groups, while group
    addresses are sparse 32-bit values.  An interner assigns each
    distinct group the next id [0, 1, 2, ...] so per-router state can
    live in arrays indexed by group id instead of hash tables keyed by
    address.  Ids are per-interner and follow interning order — they are
    deterministic for a deterministic workload, but not comparable
    across interners. *)
module Interner : sig
  type group = t

  type t

  val create : unit -> t

  val intern : t -> group -> int
  (** The group's id, assigning the next dense id on first sight. *)

  val id : t -> group -> int
  (** The group's id, or [-1] if it was never interned.  Lookup paths
      use this so that probing for an absent group does not grow the
      interner (and allocates nothing). *)

  val group_of : t -> int -> group
  (** Inverse of {!intern}.
      @raise Invalid_argument on an unassigned id. *)

  val count : t -> int
  (** Number of distinct groups interned (ids are [0 .. count - 1]). *)
end

val of_string : string -> t option

val to_string : t -> string

val pp : Format.formatter -> t -> unit
