(** Outgoing interfaces of PIM-SM forwarding entries, walked in place.

    A data packet matching an entry is copied onto each interface of the
    entry's effective outgoing set (section 3.5).  The walks below yield
    that set in ascending interface order — the directly-connected
    pseudo interface [-1] first — without building a list: each calls
    [f x y z i] for every interface [i] and returns how many it yielded.
    [f] is meant to be a closed top-level function and [x], [y], [z] its
    environment, so a walk allocates nothing.

    An oif is live for its entry by {!Fwd.is_live}.  [pruned] is an
    (S,G) entry's shared-tree prune mask: an interface live in it
    ({!Pim_mcast.Iface_timers.live}, a mask time after [now]) receives
    none of that source's traffic.  [exclude] is one more interface to skip, usually the one the
    packet arrived on; pass {!Pim_graph.Topology.no_iface} to skip
    nothing.  {!Fwd.skip} as [f] only counts. *)

module Fwd = Pim_mcast.Fwd

type iface = Pim_graph.Topology.iface

val effective :
  ('a -> 'b -> 'c -> iface -> unit) ->
  'a ->
  'b ->
  'c ->
  now:float ->
  pruned:Pim_mcast.Iface_timers.t ->
  star:Fwd.entry option ->
  exclude:iface ->
  Fwd.entry ->
  int
(** The effective set of entry [e], always without [e]'s iif and
    [exclude]:
    - "(*,G)": its own live oifs; [pruned] and [star] are ignored.
    - (S,G) negative cache (RP bit): the live oifs of [star], the group's
      "(*,G)" entry, outside [pruned].
    - (S,G) shortest-path entry: its own live oifs merged with those it
      inherits from [star], each interface once, outside [pruned] — so
      receivers that stayed on the RP tree keep getting data once an
      upstream router has switched.

    A [star] oif is live only if it is not [star]'s own iif. *)

val shared :
  ('a -> 'b -> 'c -> iface -> unit) ->
  'a ->
  'b ->
  'c ->
  now:float ->
  pruned:Pim_mcast.Iface_timers.t ->
  star:Fwd.entry ->
  exclude:iface ->
  int
(** The shared-tree fallback of an (S,G) entry whose data still arrives
    over the RP tree (section 3.5, first exception): the live oifs of
    [star] outside [pruned] and [exclude].  The (S,G) entry's own iif is
    not skipped. *)

val effective_list :
  now:float ->
  pruned:Pim_mcast.Iface_timers.t ->
  star:Fwd.entry option ->
  exclude:iface ->
  Fwd.entry ->
  iface list
(** {!effective} as a list, in walk order. *)

val shared_list :
  now:float -> pruned:Pim_mcast.Iface_timers.t -> star:Fwd.entry -> exclude:iface -> iface list
(** {!shared} as a list, in walk order. *)
