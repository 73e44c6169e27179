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
  mutable due : float;
      (** when a due-driven walk ({!iter_due}) must next visit the entry
          ({!plan_due}); [neg_infinity] when made and after a {!touch} *)
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
  mutable home : slot;
      (** the FIB group slot it was inserted into ({!star_of}); until
          then, an empty slot of its own.  Kept by the FIB.  An inserted
          entry is reachable from itself through its slot, so compare
          entries with [==] or by key ({!compare_entry}), never with
          polymorphic [=] or [compare], which may not terminate. *)
}

and slot
(** A FIB's state for one group: its "(*,G)" and its (S,G)s.  A slot
    lives as long as its FIB. *)

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

val star_of : entry -> entry option
(** The "(*,G)" entry of [e]'s group in the FIB [e] was inserted into —
    [find_star fib e.group], reached through [e]'s slot without hashing
    the group, also once [e] is removed.  [None] for an entry never
    inserted. *)

val touch : entry -> unit
(** Mark a write to [e] that a sweep reads, so that {!iter_due} visits
    [e] at its next walk, and every (S,G) of [e]'s group too when [e] is
    a "(*,G)" (an (S,G)'s sweep reads its "(*,G)", and no entry reads an
    (S,G) but itself): a write to [iif] or [rp], an oif timer shortened
    or its [local] flag cleared, a prune mask set or cleared, an oif list
    filtered by hand.  ([spt_bit] steers the data path and the refresh,
    not the sweep.)  It makes the entries due at once ([due] is
    [neg_infinity]).  {!add_oif} (a new oif or a newly set [local]),
    {!remove_oif}, {!insert}, and {!remove} of a "(*,G)" mark their own
    writes; a removed (S,G) is read by none, and {!clear} leaves nothing
    to visit. *)

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

val has_local : entry -> bool
(** Some oif of [e] is [local]: the entry serves directly-connected
    members. *)

val live_oifs : entry -> now:float -> Pim_graph.Topology.iface list
(** Interfaces whose timers have not expired, excluding the entry's iif,
    in ascending order. *)

val has_live_oif : entry -> now:float -> bool
(** [live_oifs e ~now <> []], without building the list. *)

val prune_expired_oifs : entry -> now:float -> bool
(** Drop expired, non-local oifs; returns true if any were dropped.  When
    none has expired the list is left as it is.  Not a {!touch}: the oifs
    dropped were dead already, and their deadlines were in the [due] of
    every entry that reads them. *)

val plan_due : entry -> unit
(** Set [e.timers.due] to the earliest time at which time alone changes
    what a sweep sees of [e]: a non-local oif deadline of [e] or, for an
    (S,G), of its "(*,G)" ({!star_of}); then, if [e] has a [local] oif,
    its [rp_deadline] (members keep the entry alive and watch their RP),
    otherwise its entry timer.  It overwrites a {!touch}'s mark.
    Allocates nothing. *)

val due_by : entry -> float -> unit
(** [due_by e d] makes [e] due no later than [d]. *)

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

val iter_stars : t -> ('a -> entry -> unit) -> 'a -> unit
(** [iter_stars t f x] applies [f x] to every "(*,G)" entry, in {!iter}
    order, without visiting an (S,G).  [f] may remove the entry it is
    given, and must insert nothing. *)

val iter_stars_rev : t -> ('a -> entry -> unit) -> 'a -> unit
(** {!iter_stars} in the reverse order: groups descending. *)

val iter_due : t -> now:float -> all:bool -> ('a -> entry -> unit) -> 'a -> unit
(** [iter_due t ~now ~all f x] applies [f x], in {!iter} order and under
    its contract, to the entries that are due: every entry when [all],
    otherwise those with [now >= e.timers.due] — planned ({!plan_due}),
    or marked by a {!touch} since.  [f] should plan the entry it keeps;
    since the plan overwrites a touch, [f] must itself make the entry due
    at once ({!due_by}) when it wrote what its next visit must see.  A
    "(*,G)" comes before its (S,G)s, so a touch of it during [f] makes
    them due in the same walk.  The walk allocates nothing. *)

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
