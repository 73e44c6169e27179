(* Dense/sparse interoperation tests (paper section 4, implemented in
   Pim_interop.Border).

   Topology:

       WAN (PIM sparse mode)          dense region (DVMRP-style)
     [0] -- [1=RP] -- [2] -- [3] ==== [4] -- [5] -- [6]
                                             |
                                            [7]

   Router 3 is the border's sparse half, router 4 its dense half; the
   3-4 link is the internal link. *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Pim = Pim_core.Router
module Dense = Pim_dense.Router
module Border = Pim_interop.Border

let g = Group.of_index 1

type world = {
  eng : Engine.t;
  net : Net.t;
  pim : (int * Pim.t) list;  (* WAN routers *)
  dense : (int * Dense.t) list;  (* region routers *)
  border : Border.t;
  internal_link : Topology.link_id;
}

let mk_world () =
  let b = Topology.builder 8 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  ignore (Topology.add_p2p b 2 3);
  let internal_link = Topology.add_p2p b 3 4 in
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
        (u, Pim.create ~config:Pim_core.Config.fast ~net ~rib:(Pim_routing.Static.rib static u)
              ~rp_set u))
      [ 0; 1; 2; 3 ]
  in
  let dense_config = { Dense.fast_config with Dense.advertise_members = true } in
  let dense =
    List.map
      (fun u ->
        (u, Dense.create ~config:dense_config ~net ~rib:(Pim_routing.Static.rib static u)
              ~neighbor_rib:(Pim_routing.Static.rib static) u))
      [ 4; 5; 6; 7 ]
  in
  let border =
    Border.create ~pim:(List.assoc 3 pim) ~dense:(List.assoc 4 dense)
      ~internal_iface:(Topology.iface_of_link topo 3 internal_link)
      ()
  in
  { eng; net; pim; dense; border; internal_link }

let test_member_existence_reaches_border () =
  let w = mk_world () in
  Dense.join_local (List.assoc 6 w.dense) g;
  Engine.run ~until:10. w.eng;
  Alcotest.(check bool) "border learned of region member" true
    (Dense.region_has_member (Border.dense w.border) g);
  Alcotest.(check (list string)) "border joined on the region's behalf" [ "225.0.0.1" ]
    (List.map Group.to_string (Border.joined_groups w.border));
  (* The border's sparse half is on the shared tree toward the RP. *)
  Alcotest.(check bool) "sparse half has (*,G)" true
    (Pim_mcast.Fwd.find_star (Pim.fib (List.assoc 3 w.pim)) g <> None);
  (* And so is the intermediate WAN router. *)
  Alcotest.(check bool) "WAN transit has (*,G)" true
    (Pim_mcast.Fwd.find_star (Pim.fib (List.assoc 2 w.pim)) g <> None)

let test_external_source_reaches_region_member () =
  let w = mk_world () in
  Dense.join_local (List.assoc 6 w.dense) g;
  let got = ref 0 in
  Dense.on_local_data (List.assoc 6 w.dense) (fun _ -> incr got);
  Engine.run ~until:10. w.eng;
  (* External source behind WAN router 0. *)
  let src = List.assoc 0 w.pim in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at w.eng (10. +. float_of_int i) (fun () ->
           Pim.send_local_data src ~group:g ()))
  done;
  Engine.run ~until:30. w.eng;
  Alcotest.(check int) "region member received external data" 5 !got

let test_region_source_reaches_external_member () =
  let w = mk_world () in
  (* An external member joins via normal PIM; the region has a source but
     needs at least advert machinery running. *)
  Pim.join_local (List.assoc 0 w.pim) g;
  let got = ref 0 in
  Pim.on_local_data (List.assoc 0 w.pim) (fun _ -> incr got);
  Engine.run ~until:10. w.eng;
  let src = List.assoc 7 w.dense in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at w.eng (10. +. float_of_int i) (fun () ->
           Dense.send_local_data src ~group:g ()))
  done;
  Engine.run ~until:40. w.eng;
  Alcotest.(check bool)
    (Printf.sprintf "external member received region data (%d)" !got)
    true (!got >= 4);
  (* The border's sparse half registered the region source. *)
  Alcotest.(check bool) "border registered as proxy" true
    (Pim_sim.Counters.get (Net.counters w.net) ~node:3 Registers_sent > 0)

let test_border_leaves_when_region_empties () =
  let w = mk_world () in
  let r6 = List.assoc 6 w.dense in
  Dense.join_local r6 g;
  Engine.run ~until:10. w.eng;
  Alcotest.(check int) "joined" 1 (List.length (Border.joined_groups w.border));
  Dense.leave_local r6 g;
  Engine.run ~until:20. w.eng;
  Alcotest.(check int) "left after last member" 0 (List.length (Border.joined_groups w.border));
  (* The shared-tree branch across the WAN ages out. *)
  Engine.run ~until:60. w.eng;
  Alcotest.(check bool) "WAN state gone" true
    (Pim_mcast.Fwd.find_star (Pim.fib (List.assoc 2 w.pim)) g = None)

let test_second_region_member_no_rejoin_churn () =
  let w = mk_world () in
  Dense.join_local (List.assoc 6 w.dense) g;
  Engine.run ~until:10. w.eng;
  let joins_before = Pim_sim.Counters.get (Net.counters w.net) ~node:3 Joins_sent in
  (* A second member appears and the first leaves: region stays populated,
     so the border should not leave/rejoin the wide-area tree. *)
  Dense.join_local (List.assoc 7 w.dense) g;
  Engine.run ~until:15. w.eng;
  Dense.leave_local (List.assoc 6 w.dense) g;
  Engine.run ~until:25. w.eng;
  Alcotest.(check int) "still joined" 1 (List.length (Border.joined_groups w.border));
  let joins_after = Pim_sim.Counters.get (Net.counters w.net) ~node:3 Joins_sent in
  (* Only periodic refreshes in between, no triggered leave/rejoin spike:
     15 s at one refresh per 6 s ~ 3 messages. *)
  Alcotest.(check bool)
    (Printf.sprintf "no join churn (%d new joins)" (joins_after - joins_before))
    true
    (joins_after - joins_before <= 4)

let test_crashed_region_router_advert_expires () =
  let w = mk_world () in
  Dense.join_local (List.assoc 6 w.dense) g;
  Engine.run ~until:10. w.eng;
  Alcotest.(check int) "joined" 1 (List.length (Border.joined_groups w.border));
  (* The member's router crashes without a leave: the advert must age out
     (3 x advert_interval = 9 s fast) and the border must withdraw. *)
  Net.set_node_up w.net 6 false;
  Engine.run ~until:40. w.eng;
  Alcotest.(check int) "withdrawn after advert expiry" 0
    (List.length (Border.joined_groups w.border))

let () =
  Alcotest.run "pim_interop"
    [
      ( "border",
        [
          Alcotest.test_case "member existence reaches border" `Quick
            test_member_existence_reaches_border;
          Alcotest.test_case "external source -> region member" `Quick
            test_external_source_reaches_region_member;
          Alcotest.test_case "region source -> external member" `Quick
            test_region_source_reaches_external_member;
          Alcotest.test_case "border leaves when region empties" `Quick
            test_border_leaves_when_region_empties;
          Alcotest.test_case "no rejoin churn while populated" `Quick
            test_second_region_member_no_rejoin_churn;
          Alcotest.test_case "crashed router advert expires" `Quick
            test_crashed_region_router_advert_expires;
        ] );
    ]
