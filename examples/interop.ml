(* Section 4 of the paper, "Interoperation with dense mode networks /
   regions", running end to end.

   A PIM sparse-mode WAN is spliced to a DVMRP-style dense-mode campus
   through a border router:

       WAN (PIM-SM)                       campus (dense mode)
     [0] -- [1=RP] -- [2] -- [3] ======== [4] -- [5] -- [6: member host]
                         internal link           |
                                                [7: source]

   The campus floods membership advertisements internally; the border
   (sparse half 3 / dense half 4) learns "group member existence
   information" and sends explicit PIM joins on the campus's behalf, and
   acts as the campus's proxy DR for sources inside it.

   Run with: dune exec examples/interop.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Pim = Pim_core.Router
module Dense = Pim_dense.Router
module Border = Pim_interop.Border

let g = Group.of_index 1

let () =
  let b = Topology.builder 8 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  ignore (Topology.add_p2p b 2 3);
  let internal = Topology.add_p2p b 3 4 in
  ignore (Topology.add_p2p b 4 5);
  ignore (Topology.add_p2p b 5 6);
  ignore (Topology.add_p2p b 5 7);
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let static = Pim_routing.Static.create net in
  let rp_set = Pim_core.Rp_set.single g (Addr.router 1) in
  let pim =
    List.map
      (fun u ->
        ( u,
          Pim.create ~config:Pim_core.Config.fast ~net
            ~rib:(Pim_routing.Static.rib static u) ~rp_set u ))
      [ 0; 1; 2; 3 ]
  in
  let dense_config = { Dense.fast_config with Dense.advertise_members = true } in
  let dense =
    List.map
      (fun u ->
        ( u,
          Dense.create ~config:dense_config ~net ~rib:(Pim_routing.Static.rib static u)
            ~neighbor_rib:(Pim_routing.Static.rib static) u ))
      [ 4; 5; 6; 7 ]
  in
  let border =
    Border.create ~pim:(List.assoc 3 pim) ~dense:(List.assoc 4 dense)
      ~internal_iface:(Topology.iface_of_link topo 3 internal)
      ()
  in

  (* A member inside the campus; a member on the WAN. *)
  let campus_got = ref 0 and wan_got = ref 0 in
  Dense.join_local (List.assoc 6 dense) g;
  Dense.on_local_data (List.assoc 6 dense) (fun _ -> incr campus_got);
  Pim.join_local (List.assoc 0 pim) g;
  Pim.on_local_data (List.assoc 0 pim) (fun _ -> incr wan_got);
  Engine.run ~until:10. eng;

  Format.printf "t=10: border joined on the campus's behalf for: %s@."
    (String.concat ", " (List.map Group.to_string (Border.joined_groups border)));

  (* WAN source sends, then a campus source sends. *)
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (10. +. float_of_int i) (fun () ->
           Pim.send_local_data (List.assoc 0 pim) ~group:g ()));
    ignore
      (Engine.schedule_at eng (25. +. float_of_int i) (fun () ->
           Dense.send_local_data (List.assoc 7 dense) ~group:g ()))
  done;
  Engine.run ~until:60. eng;

  Format.printf "campus member received %d packets (5 WAN-sourced + 5 campus-sourced)@."
    !campus_got;
  Format.printf "WAN member received    %d packets@." !wan_got;
  Format.printf "border registered %d packets as the campus's proxy DR@."
    (Pim_sim.Counters.get (Net.counters net) ~node:3 Registers_sent);

  (* The campus member leaves; the border withdraws. *)
  Dense.leave_local (List.assoc 6 dense) g;
  Engine.run ~until:75. eng;
  Format.printf "after the last campus member left, border joins: [%s]@."
    (String.concat ", " (List.map Group.to_string (Border.joined_groups border)));

  if !campus_got < 9 || !wan_got < 9 || Border.joined_groups border <> [] then exit 1
