(* Tests for the dense-mode (flood-and-prune) protocols: DVMRP-style and
   protocol-independent PIM dense mode. *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Group = Pim_net.Group
module Dense = Pim_dense.Router

let g = Group.of_index 1

let mk ?(config = Dense.fast_config) topo =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let dep = Dense.Deployment.create_static ~config net in
  (eng, net, dep)

let send_n eng dep ~from ~start ~interval n =
  let r = Dense.Deployment.router dep from in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at eng
         (start +. (interval *. float_of_int i))
         (fun () -> Dense.send_local_data r ~group:g ()))
  done

(* The first packet floods to every router; members hear it without any
   prior signalling (dense mode assumes membership). *)
let test_first_packet_floods () =
  let eng, _, dep = mk (Classic.grid 3 3) in
  let counts = Array.make 9 0 in
  for m = 0 to 8 do
    if m <> 0 then begin
      Dense.join_local (Dense.Deployment.router dep m) g;
      Dense.on_local_data (Dense.Deployment.router dep m) (fun _ -> counts.(m) <- counts.(m) + 1)
    end
  done;
  send_n eng dep ~from:0 ~start:1. ~interval:1. 1;
  Engine.run ~until:10. eng;
  for m = 1 to 8 do
    Alcotest.(check int) (Printf.sprintf "member %d got the flood once" m) 1 counts.(m)
  done

(* Non-members prune and stop receiving; flow keeps reaching members. *)
let test_prunes_trim_tree () =
  let eng, net, dep = mk (Classic.line 5) in
  (* Member only at node 2; nodes 3,4 are a dead branch. *)
  Dense.join_local (Dense.Deployment.router dep 2) g;
  let got = ref 0 in
  Dense.on_local_data (Dense.Deployment.router dep 2) (fun _ -> incr got);
  send_n eng dep ~from:0 ~start:1. ~interval:0.5 20;
  Engine.run ~until:14. eng;
  Alcotest.(check int) "member got everything" 20 !got;
  (* Link 3 connects 3-4: after the first flood and the prune, packets
     stop crossing it. *)
  let dead_branch_before = Net.traversals net 3 in
  send_n eng dep ~from:0 ~start:14. ~interval:0.5 10;
  Engine.run ~until:22. eng;
  let dead_branch_after = Net.traversals net 3 in
  Alcotest.(check int) "pruned branch stays quiet" 0 (dead_branch_after - dead_branch_before);
  Alcotest.(check bool) "prunes were sent" true
    ((Dense.Deployment.total_stats dep).Dense.prunes_sent > 0)

(* Pruned branches grow back after the prune timeout: the periodic
   re-broadcast of Figure 1(b). *)
let test_prune_growback () =
  let eng, net, dep = mk (Classic.line 4) in
  Dense.join_local (Dense.Deployment.router dep 1) g;
  (* Send steadily for longer than prune_timeout (18 s fast). *)
  send_n eng dep ~from:0 ~start:1. ~interval:1. 40;
  Engine.run ~until:13. eng;
  let early = Net.traversals net 2 in
  (* link 2-3 (dead branch): pruned after the first packets *)
  Engine.run ~until:45. eng;
  let late = Net.traversals net 2 in
  Alcotest.(check bool)
    (Printf.sprintf "grow-back refloods (%d -> %d)" early late)
    true (late > early)

(* Truncated broadcast: a leaf subnet with no members never sees data. *)
let test_truncated_broadcast () =
  let b = Topology.builder 2 in
  ignore (Topology.add_p2p b 0 1);
  let empty_leaf = Topology.add_lan b [ 1 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  (* Count data frames only: IGMP queries legitimately use the stub LAN. *)
  let leaf_data = ref 0 in
  Net.on_deliver net (fun lid pkt ->
      if lid = empty_leaf && Pim_mcast.Mdata.is_data pkt then incr leaf_data);
  let dep = Dense.Deployment.create_static ~config:Dense.fast_config net in
  send_n eng dep ~from:0 ~start:1. ~interval:1. 3;
  Engine.run ~until:10. eng;
  Alcotest.(check int) "no data onto empty leaf" 0 !leaf_data

(* DVMRP's child check avoids duplicate deliveries on multipath
   topologies; PIM-DM floods more and prunes the extras. *)
let test_child_check_vs_pim_dm () =
  let run mode =
    let topo = Classic.grid 3 3 in
    let eng = Engine.create () in
    let net = Net.create eng topo in
    let config = { Dense.fast_config with Dense.mode } in
    let dep = Dense.Deployment.create_static ~config net in
    Dense.join_local (Dense.Deployment.router dep 8) g;
    let got = ref 0 in
    Dense.on_local_data (Dense.Deployment.router dep 8) (fun _ -> incr got);
    send_n eng dep ~from:0 ~start:1. ~interval:1. 10;
    Engine.run ~until:20. eng;
    (!got, (Dense.Deployment.total_stats dep).Dense.data_forwarded)
  in
  let got_dvmrp, fwd_dvmrp = run Dense.Dvmrp in
  let got_dm, fwd_dm = run Dense.Pim_dm in
  Alcotest.(check int) "dvmrp delivers all" 10 got_dvmrp;
  Alcotest.(check int) "pim-dm delivers all" 10 got_dm;
  Alcotest.(check bool)
    (Printf.sprintf "pim-dm floods more (%d vs %d)" fwd_dm fwd_dvmrp)
    true (fwd_dm > fwd_dvmrp)

(* Graft: a new member on a pruned branch pulls the flow back quickly. *)
let test_graft () =
  let config = { Dense.fast_config with Dense.graft = true } in
  let eng, _, dep = mk ~config (Classic.line 4) in
  (* Steady flow with no members: everything pruned. *)
  send_n eng dep ~from:0 ~start:1. ~interval:0.5 60;
  Engine.run ~until:10. eng;
  let r3 = Dense.Deployment.router dep 3 in
  let got = ref 0 in
  Dense.on_local_data r3 (fun _ -> incr got);
  let first_arrival = ref None in
  Dense.on_local_data r3 (fun _ ->
      if !first_arrival = None then first_arrival := Some (Engine.now eng));
  ignore (Engine.schedule_at eng 10. (fun () -> Dense.join_local r3 g));
  Engine.run ~until:31. eng;
  (match !first_arrival with
  | Some t ->
    (* Without graft the branch would wait for the 18 s prune timeout. *)
    Alcotest.(check bool) (Printf.sprintf "graft repaired fast (%.2f)" t) true (t < 18.)
  | None -> Alcotest.fail "member never received after graft");
  Alcotest.(check bool) "joins sent" true ((Dense.Deployment.total_stats dep).Dense.joins_sent > 0)

(* Without graft, the same scenario waits for prune grow-back. *)
let test_no_graft_waits_for_growback () =
  let eng, _, dep = mk (Classic.line 4) in
  send_n eng dep ~from:0 ~start:1. ~interval:0.5 80;
  Engine.run ~until:10. eng;
  let r3 = Dense.Deployment.router dep 3 in
  let first_arrival = ref None in
  Dense.on_local_data r3 (fun _ ->
      if !first_arrival = None then first_arrival := Some (Engine.now eng));
  ignore (Engine.schedule_at eng 10. (fun () -> Dense.join_local r3 g));
  Engine.run ~until:45. eng;
  match !first_arrival with
  | Some t ->
    Alcotest.(check bool) (Printf.sprintf "waited for grow-back (%.2f)" t) true (t > 12.)
  | None -> Alcotest.fail "member never received"

(* RPF check: data arriving off the reverse path is dropped.  PIM dense
   mode floods both ways around the ring, so the far side sees off-path
   copies; DVMRP's child check would prevent them from being sent at
   all. *)
let test_rpf_drops () =
  let config = { Dense.fast_config with Dense.mode = Dense.Pim_dm } in
  let eng, _, dep = mk ~config (Classic.ring 4) in
  Dense.join_local (Dense.Deployment.router dep 2) g;
  let got = ref 0 in
  Dense.on_local_data (Dense.Deployment.router dep 2) (fun _ -> incr got);
  send_n eng dep ~from:0 ~start:1. ~interval:1. 5;
  Engine.run ~until:15. eng;
  (* On the ring both directions reach node 2; the RPF check must keep a
     single delivery per packet. *)
  Alcotest.(check int) "no duplicates on the ring" 5 !got;
  Alcotest.(check bool) "off-path copies dropped" true
    ((Dense.Deployment.total_stats dep).Dense.data_dropped_iif > 0)

let test_state_expires () =
  let eng, _, dep = mk (Classic.line 3) in
  Dense.join_local (Dense.Deployment.router dep 2) g;
  send_n eng dep ~from:0 ~start:1. ~interval:1. 3;
  Engine.run ~until:6. eng;
  Alcotest.(check bool) "state exists during flow" true (Dense.Deployment.total_entries dep > 0);
  (* entry_linger (21 s fast) after the last packet. *)
  Engine.run ~until:40. eng;
  Alcotest.(check int) "state gone after linger" 0 (Dense.Deployment.total_entries dep)

(* Region membership advertisements (the section-4 interop mechanism). *)

let advert_config = { Dense.fast_config with Dense.advertise_members = true }

let test_adverts_flood_region () =
  let eng, _, dep = mk ~config:advert_config (Classic.grid 3 3) in
  Dense.join_local (Dense.Deployment.router dep 8) g;
  Engine.run ~until:5. eng;
  for u = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "router %d knows of the member" u)
      true
      (Dense.region_has_member (Dense.Deployment.router dep u) g)
  done

let test_adverts_region_change_callbacks () =
  let eng, _, dep = mk ~config:advert_config (Classic.line 4) in
  let events = ref [] in
  Dense.on_region_change (Dense.Deployment.router dep 0) (fun _ present ->
      events := present :: !events);
  let r3 = Dense.Deployment.router dep 3 in
  Dense.join_local r3 g;
  Engine.run ~until:5. eng;
  Alcotest.(check (list bool)) "appeared" [ true ] (List.rev !events);
  Dense.leave_local r3 g;
  Engine.run ~until:10. eng;
  Alcotest.(check (list bool)) "and left" [ true; false ] (List.rev !events)

let test_adverts_second_member_no_flap () =
  let eng, _, dep = mk ~config:advert_config (Classic.line 4) in
  let events = ref 0 in
  Dense.on_region_change (Dense.Deployment.router dep 0) (fun _ _ -> incr events);
  Dense.join_local (Dense.Deployment.router dep 2) g;
  Engine.run ~until:5. eng;
  Dense.join_local (Dense.Deployment.router dep 3) g;
  Engine.run ~until:10. eng;
  Dense.leave_local (Dense.Deployment.router dep 2) g;
  Engine.run ~until:15. eng;
  (* Presence never flipped after the first join: one event only. *)
  Alcotest.(check int) "no flapping while populated" 1 !events

let test_adverts_expire_on_crash () =
  let eng, net, dep = mk ~config:advert_config (Classic.line 4) in
  Dense.join_local (Dense.Deployment.router dep 3) g;
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "known" true (Dense.region_has_member (Dense.Deployment.router dep 0) g);
  Net.set_node_up net 3 false;
  (* 3 x advert_interval (3 s fast) plus a sweep. *)
  Engine.run ~until:25. eng;
  Alcotest.(check bool) "aged out after crash" false
    (Dense.region_has_member (Dense.Deployment.router dep 0) g)

let test_adverts_off_by_default () =
  let eng, _, dep = mk (Classic.line 3) in
  Dense.join_local (Dense.Deployment.router dep 2) g;
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "no advert machinery when disabled" false
    (Dense.region_has_member (Dense.Deployment.router dep 0) g)

(* Pin the qcheck exploration seed so [dune runtest] draws the same property
   cases on every run; export QCHECK_SEED to explore a different slice of the
   input space. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 1994)
    | None -> 1994
  in
  Random.State.make [| seed |]

(* Data forwarding walks the router's interface array in place; over
   random topologies (point-to-point links, shared LANs, leaf stub LANs)
   and random state — iif, exclude, prune masks alive and expired, IGMP
   members, the router's own membership, links and neighbours down, both
   PIM-DM and DVMRP's child check — the walk yields exactly the list
   [broadcast_olist] used to build, in the same order. *)
let prop_broadcast_walk_matches_list =
  QCheck.Test.make ~count:300 ~name:"broadcast walk yields the old olist"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let pick n = Random.State.int rs n and coin p = Random.State.float rs 1. < p in
      let n = 2 + pick 5 in
      let b = Topology.builder n in
      for u = 0 to n - 1 do
        if coin 0.4 then ignore (Topology.add_lan b [ u ])
      done;
      for _ = 1 to n + pick n do
        let u = pick n and v = pick n in
        if u <> v then ignore (Topology.add_p2p b u v)
      done;
      if n >= 3 && coin 0.5 then ignore (Topology.add_lan b [ 0; 1 + pick (n - 2); n - 1 ]);
      let topo = Topology.freeze b in
      let node = pick n in
      let deg = Topology.degree topo node in
      let eng = Engine.create () in
      let net = Net.create eng topo in
      let static = Pim_routing.Static.create net in
      let dvmrp = coin 0.5 in
      let mode = if dvmrp then Dense.Dvmrp else Dense.Pim_dm in
      let config = { Dense.fast_config with Dense.mode } in
      let r =
        Dense.create ~config ~net ~rib:(Pim_routing.Static.rib static node)
          ~neighbor_rib:(Pim_routing.Static.rib static) node
      in
      let src = Pim_net.Addr.host ~router:(pick n) 1 in
      let iif = if deg > 0 && coin 0.8 then Some (pick deg) else None in
      let e = Pim_mcast.Fwd.make_sg ~group:g ~source:src ~iif ~expires:100. () in
      Pim_mcast.Fwd.insert (Dense.fib r) e;
      let joined = coin 0.3 in
      if joined then Dense.join_local r g;
      let pruned = ref [] in
      for i = 0 to deg - 1 do
        if coin 0.3 then begin
          let holdtime = List.nth [ -1.; 0.; 0.5; 3. ] (pick 4) in
          Dense.apply_prune r e ~iface:i ~holdtime;
          pruned := (i, holdtime) :: !pruned
        end;
        if coin 0.4 then
          ignore
            (Pim_igmp.Router.handle_packet (Dense.igmp r) ~iface:i
               (Pim_igmp.Message.report_packet ~src:(Pim_net.Addr.host ~router:node 2) ~group:g ()))
      done;
      Array.iter
        (fun (l : Topology.link) -> if coin 0.15 then Net.set_link_up net l.Topology.id false)
        (Topology.links topo);
      for v = 0 to n - 1 do
        if v <> node && coin 0.15 then Net.set_node_up net v false
      done;
      let exclude = if deg > 0 && coin 0.5 then Some (pick deg) else None in
      Dense.broadcast_ifaces r e ~exclude
      = Oif_reference.broadcast_olist ~net ~node ~igmp:(Dense.igmp r)
          ~neighbor_rib:(Pim_routing.Static.rib static) ~dvmrp ~pruned:!pruned ~joined ~now:0. e
          ~exclude src g)

let () =
  Alcotest.run "pim_dense"
    [
      ( "flood-prune",
        [
          Alcotest.test_case "first packet floods" `Quick test_first_packet_floods;
          Alcotest.test_case "prunes trim the tree" `Quick test_prunes_trim_tree;
          Alcotest.test_case "prune grow-back refloods" `Quick test_prune_growback;
          Alcotest.test_case "truncated broadcast" `Quick test_truncated_broadcast;
          Alcotest.test_case "rpf drops duplicates" `Quick test_rpf_drops;
          Alcotest.test_case "state expires" `Quick test_state_expires;
        ] );
      ( "adverts",
        [
          Alcotest.test_case "flood region" `Quick test_adverts_flood_region;
          Alcotest.test_case "region change callbacks" `Quick test_adverts_region_change_callbacks;
          Alcotest.test_case "no flap while populated" `Quick test_adverts_second_member_no_flap;
          Alcotest.test_case "expire on crash" `Quick test_adverts_expire_on_crash;
          Alcotest.test_case "off by default" `Quick test_adverts_off_by_default;
        ] );
      ( "variants",
        [
          Alcotest.test_case "child check vs pim-dm" `Quick test_child_check_vs_pim_dm;
          Alcotest.test_case "graft" `Quick test_graft;
          Alcotest.test_case "no graft waits" `Quick test_no_graft_waits_for_growback;
        ] );
      ( "walk",
        [ QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_broadcast_walk_matches_list ] );
    ]
