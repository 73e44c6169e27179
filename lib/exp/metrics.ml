module Packet = Pim_net.Packet

type t = {
  data : int array;
  control : int array;
  mutable data_bytes : int;
  mutable control_bytes : int;
}

let is_data pkt =
  match pkt.Packet.payload with
  | Pim_mcast.Mdata.Data _ -> true
  | Pim_core.Message.Register inner -> Pim_mcast.Mdata.is_data inner
  | _ -> Pim_cbt.Router.is_encapsulated_data pkt

let attach net =
  let n = Pim_graph.Topology.n_links (Pim_sim.Net.topo net) in
  let t = { data = Array.make n 0; control = Array.make n 0; data_bytes = 0; control_bytes = 0 } in
  Pim_sim.Net.on_deliver net (fun lid pkt ->
      if is_data pkt then begin
        t.data.(lid) <- t.data.(lid) + 1;
        t.data_bytes <- t.data_bytes + pkt.Packet.size
      end
      else begin
        t.control.(lid) <- t.control.(lid) + 1;
        t.control_bytes <- t.control_bytes + pkt.Packet.size
      end);
  t

let data_traversals t = Array.fold_left ( + ) 0 t.data

let control_traversals t = Array.fold_left ( + ) 0 t.control

let data_bytes t = t.data_bytes

let control_bytes t = t.control_bytes

let max_link_data t = Array.fold_left max 0 t.data
