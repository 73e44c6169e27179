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

(* MOSPF's link-state database as it was kept before routers stored the
   received LSA records themselves: per router, a hash table from origin
   router to (sequence number, group set), rebuilt from the LSA's group
   list on every install.  Kept as the reference the shared-record
   database is checked against; fed the LSAs a router's Net handler sees,
   and the same local joins, leaves and restarts. *)
module Lsdb = struct
  module GroupSet = Set.Make (Pim_net.Group)

  type t = {
    node : Topology.node;
    lsdb : (Topology.node, int * GroupSet.t) Hashtbl.t;
    mutable local_groups : GroupSet.t;
  }

  let create node = { node; lsdb = Hashtbl.create 8; local_groups = GroupSet.empty }

  let install t (l : Mospf.lsa) =
    if l.origin <> t.node then begin
      let fresher =
        match Hashtbl.find_opt t.lsdb l.origin with None -> true | Some (seq, _) -> l.seq > seq
      in
      if fresher then Hashtbl.replace t.lsdb l.origin (l.seq, GroupSet.of_list l.groups)
    end

  let join t g = t.local_groups <- GroupSet.add g t.local_groups

  let leave t g = t.local_groups <- GroupSet.remove g t.local_groups

  let restart t = Hashtbl.reset t.lsdb

  let knows_member t u g =
    if u = t.node then GroupSet.mem g t.local_groups
    else
      match Hashtbl.find_opt t.lsdb u with Some (_, gs) -> GroupSet.mem g gs | None -> false

  let membership_entries t =
    Hashtbl.fold (fun _ (_, gs) acc -> acc + GroupSet.cardinal gs) t.lsdb 0
    + GroupSet.cardinal t.local_groups
end
