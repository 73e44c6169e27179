(* MOSPF's per-router forwarding plan as it was computed before the
   routers of a deployment shared one tree per source: every router ran
   its own Dijkstra from the source over the live topology and read its
   incoming interface and downstream interfaces off the tree's edge list.
   Kept as the reference the shared-tree plan is checked against. *)

module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Net = Pim_sim.Net
module Mospf = Pim_mospf.Router

let plan ~net r src g : Mospf.plan =
  let topo = Net.topo net in
  let node = Mospf.node r in
  let usable u v lid = Net.link_up net lid && Net.node_up net u && Net.node_up net v in
  let tree = Spt.single_source ~usable topo src in
  let members =
    List.init (Topology.n_nodes topo) Fun.id |> List.filter (fun u -> Mospf.knows_member r u g)
  in
  let edges = Spt.tree_edges tree ~members in
  let olist =
    List.filter_map
      (fun (p, _, lid) -> if p = node then Topology.iface_of_link_opt topo node lid else None)
      edges
    |> List.sort_uniq Int.compare
  in
  let iif =
    if node = src then None
    else
      List.find_map
        (fun (_, c, lid) -> if c = node then Topology.iface_of_link_opt topo node lid else None)
        edges
  in
  let member_here = Mospf.knows_member r node g in
  { Mospf.iif; olist; member_here; on_tree = node = src || iif <> None }
