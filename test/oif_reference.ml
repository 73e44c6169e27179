(* The outgoing-interface lists of PIM-SM, CBT and PIM-DM/DVMRP as they
   were computed before forwarding walked the state in place: each built
   a list per packet (filters, a merge by [sort_uniq], a hash-table fold).
   The router state they read is passed in explicitly.  Kept as the
   references the in-place walks are checked against. *)

module Topology = Pim_graph.Topology
module Fwd = Pim_mcast.Fwd
module Net = Pim_sim.Net
module Rib = Pim_routing.Rib

(* {1 PIM-SM} *)

let pruned_mask ~now pruned =
  if Hashtbl.length pruned = 0 then []
  else
    Hashtbl.fold (fun i exp acc -> if exp > now then i :: acc else acc) pruned []
    |> List.sort Int.compare

(* [star] is the group's "(*,G)" entry as the FIB holds it; [pruned] is
   [e]'s prune mask. *)
let effective_olist ~now ~pruned ~star (e : Fwd.entry) ~exclude =
  let n = now in
  let star = if Fwd.is_star e then Some e else star in
  let base =
    if Fwd.is_star e then Fwd.live_oifs e ~now:n
    else if e.rp_bit then (match star with Some s -> Fwd.live_oifs s ~now:n | None -> [])
    else
      let own = Fwd.live_oifs e ~now:n in
      let inherited = match star with Some s -> Fwd.live_oifs s ~now:n | None -> [] in
      List.sort_uniq Int.compare (own @ inherited)
  in
  let mask = if Fwd.is_star e then [] else pruned_mask ~now pruned in
  base
  |> List.filter (fun i ->
         (not (List.mem i mask)) && Some i <> e.Fwd.iif && Some i <> exclude)

let shared_olist ~now ~pruned ~star ~exclude =
  match star with
  | None -> []
  | Some star ->
    let mask = pruned_mask ~now pruned in
    Fwd.live_oifs star ~now
    |> List.filter (fun i -> (not (List.mem i mask)) && Some i <> exclude)

(* {1 CBT} *)

let tree_ifaces_of ~now ~children ~parent ~confirmed ~core =
  let base =
    Hashtbl.fold (fun i exp acc -> if exp > now then i :: acc else acc) children []
    |> List.sort_uniq Int.compare
  in
  match parent with
  | Some (i, _) when confirmed && not core -> List.sort_uniq Int.compare (i :: base)
  | _ -> base

(* {1 PIM-DM / DVMRP} *)

let local_iface = -1

let link_has_child ~net ~node ~neighbor_rib lid src =
  Topology.others_on_link (Net.topo net) lid node
  |> List.exists (fun v ->
         Net.node_up net v
         &&
         match Rib.next_hop (neighbor_rib v) src with
         | Some (vi, next) -> (
           next = node
           &&
           match Topology.iface_of_link_opt (Net.topo net) v lid with
           | Some i -> i = vi
           | None -> false)
         | None -> false)

(* [pruned] lists the entry's prune state as (iface, expiry); [dvmrp]
   selects the child check; [joined] is whether the router itself joined
   the group (its local member set). *)
let broadcast_olist ~net ~node ~igmp ~neighbor_rib ~dvmrp ~pruned ~joined ~now
    (e : Fwd.entry) ~exclude src g =
  let live_pruned i =
    match List.assoc_opt i pruned with Some exp -> exp > now | None -> false
  in
  let topo = Net.topo net in
  let wire =
    Array.to_list (Topology.ifaces topo node)
    |> List.filter_map (fun (i, lid) ->
           if Some i = e.Fwd.iif || Some i = exclude || live_pruned i then None
           else if not (Net.link_up net lid) then None
           else
             let others = Topology.others_on_link topo lid node in
             if others = [] then
               if List.mem i (Pim_igmp.Router.member_ifaces igmp g) then Some i else None
             else if not dvmrp then Some i
             else if link_has_child ~net ~node ~neighbor_rib lid src then Some i
             else None)
  in
  if joined then local_iface :: wire else wire
