(** Per-interface deadlines, unboxed.

    The soft state the protocols keep per interface of an entry — PIM-SM
    and PIM-DM prune masks, PIM-DM join timestamps — is
    a map from a router's interfaces to one time each.  Interfaces are
    small dense integers, so the map is a float array indexed by
    interface (grown on demand) with a count of the interfaces present:
    setting, clearing and testing one interface allocate nothing and hash
    nothing, which matters because the data path asks {!live} per
    interface per packet.

    Presence and liveness are distinct.  An interface is present from
    {!set} until {!clear} or an {!expire} that reaches its deadline; it is
    live at [now] when present with a deadline after [now].  So a deadline
    that has passed but has not been expired yet is present ({!find},
    {!count}) and not live.

    Interfaces run from [-1] (the directly-connected pseudo interface of
    the forwarding entries' oif lists) upward. *)

type t

val create : unit -> t
(** An empty table.  It allocates no storage until the first {!set}, so
    a table that stays empty (a "(*,G)" entry's prune mask) costs three
    words. *)

val set : t -> Pim_graph.Topology.iface -> float -> unit
(** [set t i d] makes [i] present with deadline [d], replacing any
    deadline it had, expired or not.
    @raise Invalid_argument when [i < -1] or [d] is nan. *)

val clear : t -> Pim_graph.Topology.iface -> unit
(** [i] is no longer present; a no-op when it was not. *)

val find : t -> Pim_graph.Topology.iface -> float
(** [i]'s deadline.
    @raise Not_found when [i] is not present. *)

val live : t -> Pim_graph.Topology.iface -> now:float -> bool
(** [i] is present with a deadline after [now].  An empty table costs
    one length test; any [i] outside the table is not live. *)

val expire : t -> now:float -> unit
(** Remove, in place, every interface whose deadline is at or before
    [now] — exactly those {!live} calls not live at [now]. *)

val earliest : t -> float
(** The earliest deadline present, expired or not; [infinity] when none
    is. *)

val count : t -> int
(** How many interfaces are present (expired or not). *)
