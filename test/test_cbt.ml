(* Tests for the Core Based Trees baseline (Pim_cbt). *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Cbt = Pim_cbt.Router

let g = Group.of_index 1

let core_node = 2

let core_of gg = if Group.equal gg g then Some (Addr.router core_node) else None

let mk ?(config = Cbt.fast_config) topo =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let dep = Cbt.Deployment.create_static ~config net ~core_of in
  (eng, net, dep)

let test_join_ack_builds_tree () =
  let eng, net, dep = mk (Classic.line 5) in
  Cbt.join_local (Cbt.Deployment.router dep 4) g;
  Engine.run ~until:10. eng;
  (* 4, 3 and the core are on the tree; 0 and 1 are not. *)
  Alcotest.(check bool) "receiver on tree" true (Cbt.on_tree (Cbt.Deployment.router dep 4) g);
  Alcotest.(check bool) "transit on tree" true (Cbt.on_tree (Cbt.Deployment.router dep 3) g);
  Alcotest.(check bool) "core on tree" true (Cbt.on_tree (Cbt.Deployment.router dep 2) g);
  Alcotest.(check bool) "off-branch router not on tree" false
    (Cbt.on_tree (Cbt.Deployment.router dep 0) g);
  (* Transit router has both parent and child interfaces. *)
  let transit = Option.get (Pim_mcast.Fwd.find_star (Cbt.fib (Cbt.Deployment.router dep 3)) g) in
  Alcotest.(check int) "transit degree 2" 2
    (List.length (Cbt.tree_ifaces ~now:(Engine.now eng) transit));
  Alcotest.(check bool) "acks were sent" true
    (Counters.total (Net.counters net) Counters.Acks_sent > 0)

let test_bidirectional_data () =
  (* Members at both ends; an on-tree sender's packets go both ways
     without visiting the core twice. *)
  let eng, _, dep = mk (Classic.line 5) in
  Cbt.join_local (Cbt.Deployment.router dep 0) g;
  Cbt.join_local (Cbt.Deployment.router dep 4) g;
  let got0 = ref 0 and got4 = ref 0 in
  Cbt.on_local_data (Cbt.Deployment.router dep 0) (fun _ -> incr got0);
  Cbt.on_local_data (Cbt.Deployment.router dep 4) (fun _ -> incr got4);
  Engine.run ~until:10. eng;
  let sender = Cbt.Deployment.router dep 4 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (10. +. float_of_int i) (fun () ->
           Cbt.send_local_data sender ~group:g ()))
  done;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "far member" 5 !got0;
  Alcotest.(check int) "sender's own member hears too" 5 !got4

let test_off_tree_sender_encapsulates () =
  let eng, net, dep = mk (Classic.line 5) in
  Cbt.join_local (Cbt.Deployment.router dep 4) g;
  let got = ref 0 in
  Cbt.on_local_data (Cbt.Deployment.router dep 4) (fun _ -> incr got);
  Engine.run ~until:10. eng;
  (* Node 0 is off-tree: data must be tunnelled to the core. *)
  let sender = Cbt.Deployment.router dep 0 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (10. +. float_of_int i) (fun () ->
           Cbt.send_local_data sender ~group:g ()))
  done;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "delivered via core" 5 !got;
  Alcotest.(check bool) "encapsulation used" true
    (Counters.get (Net.counters net) ~node:(Cbt.node sender) Counters.Data_encapsulated > 0);
  Alcotest.(check bool) "sender stayed off-tree" false (Cbt.on_tree sender g)

let test_quit_on_leave () =
  let eng, net, dep = mk (Classic.line 5) in
  let r4 = Cbt.Deployment.router dep 4 in
  Cbt.join_local r4 g;
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "transit joined" true (Cbt.on_tree (Cbt.Deployment.router dep 3) g);
  Cbt.leave_local r4 g;
  (* Child ageing (25 s fast) plus quits tear the branch down. *)
  Engine.run ~until:80. eng;
  Alcotest.(check bool) "receiver left" false (Cbt.on_tree r4 g);
  Alcotest.(check bool) "transit quit too" false (Cbt.on_tree (Cbt.Deployment.router dep 3) g);
  Alcotest.(check bool) "quits were sent" true
    (Counters.total (Net.counters net) Counters.Quits_sent > 0)

let test_flush_and_rejoin_on_parent_death () =
  (* Ring topology so an alternate path exists after the failure. *)
  let eng, net, dep = mk (Classic.ring 6) in
  let r5 = Cbt.Deployment.router dep 5 in
  (* core = 2; receiver 5 joins via 4-3 or 0-1 *)
  Cbt.join_local r5 g;
  let got = ref 0 in
  Cbt.on_local_data r5 (fun _ -> incr got);
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "joined" true (Cbt.on_tree r5 g);
  (* Kill node 4 (one candidate path) — if 5's parent was 4, it must
     flush and rejoin the other way; if not, nothing happens. *)
  Net.set_node_up net 4 false;
  Engine.run ~until:80. eng;
  Alcotest.(check bool) "recovered on tree" true (Cbt.on_tree r5 g);
  (* Data still deliverable end to end. *)
  let s0 = Cbt.Deployment.router dep 1 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (80. +. float_of_int i) (fun () ->
           Cbt.send_local_data s0 ~group:g ()))
  done;
  Engine.run ~until:100. eng;
  Alcotest.(check int) "delivery after repair" 5 !got

let test_traffic_concentrates_at_core () =
  (* Star with core at hub: every flow crosses the hub links — the
     concentration effect of Figure 2(b). *)
  let topo = Classic.star 6 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let core_of gg = if Group.equal gg g then Some (Addr.router 0) else None in
  let dep = Cbt.Deployment.create_static ~config:Cbt.fast_config net ~core_of in
  let members = [ 1; 2; 3; 4; 5 ] in
  List.iter (fun m -> Cbt.join_local (Cbt.Deployment.router dep m) g) members;
  Engine.run ~until:10. eng;
  let data_per_link = Array.make (Topology.n_links topo) 0 in
  Net.on_deliver net (fun lid pkt ->
      if Pim_mcast.Mdata.is_data pkt then data_per_link.(lid) <- data_per_link.(lid) + 1);
  List.iter
    (fun m ->
      let r = Cbt.Deployment.router dep m in
      ignore (Engine.schedule_at eng (10. +. (0.1 *. float_of_int m)) (fun () ->
          Cbt.send_local_data r ~group:g ())))
    members;
  Engine.run ~until:30. eng;
  (* Each spoke link carries its member's outbound flow plus the other
     four members' inbound flows = 5 data frames. *)
  Array.iteri
    (fun lid c -> Alcotest.(check int) (Printf.sprintf "link %d flows" lid) 5 c)
    data_per_link

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

(* Forwarding walks a row's oifs merged with its iif, and data is
   accepted on an interface that passes [on_tree_iface]; over random tree
   state (child timers on both sides of [now] = 10 and exactly at it, a
   local member or none, a parent or none, confirmed or not, core or not)
   both yield exactly the list [tree_ifaces_of] used to build.  The core
   has no parent: its row's iif is [None]. *)
let prop_on_tree_iface_matches_list =
  QCheck.Test.make ~count:1000 ~name:"on_tree_iface walk yields the old tree list"
    QCheck.(
      make
        Gen.(
          int_range 1 6 >>= fun deg ->
          quad
            (list_size (int_bound 6) (pair (int_bound (deg - 1)) (oneofl [ 5.; 10.; 10.01; 15. ])))
            (opt (int_bound (deg - 1)))
            (triple bool bool bool) (return deg)))
    (fun (children_l, parent_iface, (confirmed, core, local), deg) ->
      let module Fwd = Pim_mcast.Fwd in
      let now = 10. in
      let children = Hashtbl.create 4 in
      List.iter (fun (i, exp) -> Hashtbl.replace children i exp) children_l;
      let parent = if core then None else Option.map (fun i -> (i, 7)) parent_iface in
      let e =
        Fwd.make_star ~group:g ~rp:(Addr.router core_node) ~iif:(Option.map fst parent)
          ~expires:infinity
      in
      Hashtbl.iter (fun i exp -> Fwd.add_oif e i ~expires:exp ~local:false) children;
      if local then Fwd.add_oif e (-1) ~expires:infinity ~local:true;
      e.Fwd.ext <-
        Cbt.Tree
          { up = 7; confirmed; pending = []; join_outstanding = false; parent_deadline = infinity };
      let expected = Oif_reference.tree_ifaces_of ~now ~children ~parent ~confirmed ~core in
      List.filter (Cbt.on_tree_iface ~now e) (List.init deg Fun.id) = expected
      && Cbt.tree_ifaces ~now e = expected)

let () =
  Alcotest.run "pim_cbt"
    [
      ( "tree",
        [
          Alcotest.test_case "join/ack builds tree" `Quick test_join_ack_builds_tree;
          Alcotest.test_case "quit on leave" `Quick test_quit_on_leave;
          Alcotest.test_case "flush and rejoin on parent death" `Quick
            test_flush_and_rejoin_on_parent_death;
        ] );
      ( "data",
        [
          Alcotest.test_case "bidirectional forwarding" `Quick test_bidirectional_data;
          Alcotest.test_case "off-tree sender encapsulates" `Quick
            test_off_tree_sender_encapsulates;
          Alcotest.test_case "traffic concentrates at core" `Quick
            test_traffic_concentrates_at_core;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_on_tree_iface_matches_list;
        ] );
    ]
