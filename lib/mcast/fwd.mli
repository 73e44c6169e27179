(** Multicast forwarding entries and the forwarding information base.

    Mirrors the state the paper describes in section 3: a source-specific
    entry (S,G) or a shared-tree wildcard entry "(*,G)", each carrying an
    incoming interface, a timed outgoing-interface list, and the WC / RP /
    SPT flag bits whose meanings are:

    - WC bit: the entry is "(*,G)"; the address stored is the RP, not a
      source.
    - RP bit: the entry lives on the RP-rooted shared tree — its incoming
      interface check points toward the RP and its prunes travel toward the
      RP (negative caches are (S,G) entries with the RP bit set).
    - SPT bit: the shortest-path transition for (S,G) is complete; data
      from S is expected on the SPT interface (section 3.3). *)

type oif = {
  iface : Pim_graph.Topology.iface;
  mutable expires : float;  (** reset on every Join received on it *)
  mutable local : bool;  (** kept alive by directly-connected members, not by joins *)
}

type ext = ..
(** Protocol state kept on an entry by the protocol that owns the FIB
    (timers, prune masks, upstream neighbor), so a walk over the FIB
    reaches it without a second lookup.  Each protocol adds its own
    constructor. *)

type ext += No_ext  (** nothing attached yet *)

type timers = {
  mutable expires : float;  (** entry timer *)
  mutable rp_deadline : float;  (** RP-reachability timer ("(*,G)" at routers with members) *)
}
(** An entry's own timers.  All fields are floats, so OCaml stores the
    record flat: refreshing a timer writes the float in place, with no
    boxed float allocated and no write barrier on an old entry. *)

type entry = {
  group : Pim_net.Group.t;
  source : Pim_net.Addr.t option;  (** [None] for "(*,G)" *)
  mutable rp : Pim_net.Addr.t option;  (** the group's RP *)
  mutable iif : Pim_graph.Topology.iface option;
  mutable oifs : oif list;  (** ascending by interface, one oif per interface *)
  mutable wc_bit : bool;
  mutable rp_bit : bool;
  mutable spt_bit : bool;
  timers : timers;  (** [rp_deadline] starts at [infinity] *)
  mutable ext : ext;  (** [No_ext] when made *)
}

val make_star :
  group:Pim_net.Group.t ->
  rp:Pim_net.Addr.t ->
  iif:Pim_graph.Topology.iface option ->
  expires:float ->
  entry
(** A "(*,G)" entry: WC and RP bits set. *)

val make_sg :
  group:Pim_net.Group.t ->
  source:Pim_net.Addr.t ->
  ?rp:Pim_net.Addr.t ->
  ?rp_bit:bool ->
  iif:Pim_graph.Topology.iface option ->
  expires:float ->
  unit ->
  entry
(** An (S,G) entry; SPT bit initially cleared (section 3.3). *)

val is_star : entry -> bool

val keepalive : entry -> now:float -> linger:float -> unit
(** Extend the entry timer to [now +. linger]; never shortens it.
    Allocates nothing. *)

val iif_is : entry -> Pim_graph.Topology.iface -> bool
(** [iif_is e i] is [e.iif = Some i], as an int test that allocates
    nothing — the data path's incoming-interface check. *)

val find_oif_exn : entry -> Pim_graph.Topology.iface -> oif
(** [e]'s oif on the interface; a lookup allocates nothing.
    @raise Not_found when [e] has no oif on the interface. *)

val add_oif : entry -> Pim_graph.Topology.iface -> expires:float -> local:bool -> unit
(** Add or refresh: an existing oif gets its timer extended (never
    shortened) and its [local] flag or'ed.  A new oif is inserted in
    interface order. *)

val remove_oif : entry -> Pim_graph.Topology.iface -> unit

val is_live : entry -> oif -> now:float -> bool
(** [o] forwards for [e]: it is [local] or its timer has not run out
    ([expires > now]), and it is not [e]'s iif. *)

val skip : 'a -> 'b -> 'c -> Pim_graph.Topology.iface -> unit
(** A sink that does nothing, for the in-place oif walks (which call
    [f x y z i] per interface and return the count): passing it asks only
    whether, or how often, the walk would forward. *)

val live_oifs : entry -> now:float -> Pim_graph.Topology.iface list
(** Interfaces whose timers have not expired, excluding the entry's iif,
    in ascending order. *)

val has_live_oif : entry -> now:float -> bool
(** [live_oifs e ~now <> []], without building the list. *)

val prune_expired_oifs : entry -> now:float -> bool
(** Drop expired, non-local oifs; returns true if any were dropped.  When
    none has expired the list is left as it is. *)

val pp_entry : Format.formatter -> entry -> unit

(** {1 FIB} *)

type t

val create : unit -> t

val find_sg : t -> Pim_net.Group.t -> Pim_net.Addr.t -> entry option

val find_sg_exn : t -> Pim_net.Group.t -> Pim_net.Addr.t -> entry
(** {!find_sg} without the option: the lookup the protocols' control and
    data paths make, which allocates nothing.
    @raise Not_found when there is no such entry. *)

val mem_sg : t -> Pim_net.Group.t -> Pim_net.Addr.t -> bool
(** [find_sg t g s <> None], without building the option. *)

val find_star : t -> Pim_net.Group.t -> entry option

val match_data : t -> Pim_net.Group.t -> src:Pim_net.Addr.t -> entry
(** Longest-match rule for data packets: (S,G) if present, else "(*,G)".
    A match builds nothing: this runs once per forwarded packet.
    @raise Not_found when the router has neither entry. *)

val insert : t -> entry -> unit
(** @raise Invalid_argument if an entry with the same key exists. *)

val remove : t -> Pim_net.Group.t -> Pim_net.Addr.t option -> unit

val compare_entry : entry -> entry -> int
(** Canonical (group, source) order; "(*,G)" sorts before its (S,G)s. *)

val iter : t -> (entry -> unit) -> unit
(** [iter t f] applies [f] to every entry in {!compare_entry} order:
    groups ascending, and within a group the "(*,G)" entry before its
    (S,G) entries by source.  So traversal-driven protocol actions
    (sweeps, refreshes) are independent of hash layout.  The walk
    allocates nothing.

    [f] may remove the entry it is given, and no other; the walk then
    visits exactly the entries a walk over a snapshot would.  [f] must
    insert nothing. *)

val entries : t -> entry list
(** The entries {!iter} visits, in its order, as a list. *)

val group_entries : t -> Pim_net.Group.t -> entry list
(** All entries of a group: the "(*,G)" first if present, then (S,G)s in
    source order. *)

val sources : t -> Pim_net.Group.t -> entry list
(** The group's (S,G) entries in source order: the FIB's own list, so
    asking allocates nothing.  Valid until the next insert or remove. *)

val count : t -> int

val clear : t -> unit
(** Drop every entry — a router restart loses its forwarding state and
    must rebuild it from soft-state refreshes. *)

val pp : Format.formatter -> t -> unit
