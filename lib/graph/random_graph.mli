(** Random connected topologies with a target average node degree.

    Figure 2 of the paper evaluates tree types on "500 different 50-node
    graphs" for each "network node degree" between 3 and 8.  This module
    generates such graphs: a uniform random spanning tree guarantees
    connectivity, then uniformly chosen extra point-to-point links are
    added until the average degree [2m/n] reaches the target.  All links
    have unit cost and unit delay unless overridden. *)

val generate :
  ?cost:int ->
  ?delay:float ->
  prng:Pim_util.Prng.t ->
  nodes:int ->
  degree:float ->
  unit ->
  Topology.t
(** [generate ~prng ~nodes ~degree ()] returns a connected topology whose
    average degree is as close to [degree] as the edge count allows.
    Requires [degree >= 2 * (nodes-1) / nodes] (a spanning tree already has
    average degree just under 2) and at most [nodes-1] (complete graph).
    Self-loops and duplicate links are never produced. *)

val pick_members :
  prng:Pim_util.Prng.t -> nodes:int -> count:int -> Topology.node list
(** [count] distinct nodes chosen uniformly — the group members of one
    experiment trial.
    @raise Invalid_argument unless [0 <= count <= nodes]. *)
