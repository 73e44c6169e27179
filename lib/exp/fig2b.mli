(** Figure 2(b): traffic concentration — the maximum number of traffic
    flows carried by any single link, under shortest-path trees versus a
    center-based (shared) tree.

    Paper setup: random 50-node networks, 300 active groups of 40 members
    each of which 32 are senders, node degrees 3 to 8, 500 networks per
    degree.  The center-based tree concentrates noticeably more flows on
    its hottest link at every degree. *)

type row = {
  degree : float;
  spt_max_flows : float;  (** mean over networks of the per-network maximum *)
  cbt_max_flows : float;
  spt_stddev : float;
  cbt_stddev : float;
  trials : int;
}

val optimal_core :
  Pim_graph.Spt.tree array ->
  senders:Pim_graph.Topology.node list ->
  members:Pim_graph.Topology.node list ->
  Pim_graph.Topology.node
(** The node minimising [max_s d(s,c) + max_r d(c,r)] given one
    shortest-path tree per candidate node.  Candidates that cannot reach
    every sender and member are skipped (additions saturate instead of
    wrapping), so a node in a different partition of a disconnected
    topology can never be chosen while a fully-reaching candidate exists;
    with no such candidate, the node missing the fewest endpoints wins.
    Exposed for the experiment harness and its regression tests. *)

val run :
  ?nodes:int ->
  ?groups:int ->
  ?members:int ->
  ?senders:int ->
  ?trials:int ->
  ?degrees:float list ->
  seed:int ->
  unit ->
  row list
(** Defaults: 50 nodes, 300 groups, 40 members, 32 senders, degrees 3..8,
    30 networks per degree (the paper used 500; pass [~trials:500] to
    match — the shape is stable well below that).

    @raise Invalid_argument when [trials], [groups] or [senders] is below
    1, or [senders > members]. *)

val pp_rows : Format.formatter -> row list -> unit
