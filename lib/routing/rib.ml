module Topology = Pim_graph.Topology

type t = {
  node : Topology.node;
  route : Pim_net.Addr.t -> int;
  distance : Pim_net.Addr.t -> int option;
  subscribe : (unit -> unit) -> unit;
}

(* The router above bit 32, the interface below; unreachable is
   [Topology.no_iface], the only negative route. *)
let pack_route ~iface ~node = (node lsl 32) lor iface

let route_iface r = if r < 0 then Topology.no_iface else r land 0xFFFF_FFFF

let route_node r = if r < 0 then Topology.no_node else r lsr 32

let next_hop t addr =
  let r = t.route addr in
  if r < 0 then None else Some (route_iface r, route_node r)

let rpf_iface t addr =
  let r = t.route addr in
  if r < 0 then None else Some (route_iface r)

let resolve addr =
  let d = Pim_net.Addr.owner_index addr in
  if d < 0 then None else Some d
