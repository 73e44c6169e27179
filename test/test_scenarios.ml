(* The paper's figure walk-throughs as assertions: Figure 3 (rendezvous),
   Figure 4 (receiver join / shared-tree state), Figure 5 (switch to the
   shortest-path tree). *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Event = Pim_sim.Event
module Topology = Pim_graph.Topology
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Fwd = Pim_mcast.Fwd
module Config = Pim_core.Config
module Router = Pim_core.Router
module Deployment = Pim_core.Deployment
module Scenario = Pim_exp.Scenario

let g = Group.of_index 1

(* Figure 3: "How senders rendezvous with receivers".  Receiver behind A,
   RP in the middle, sender behind D:

     receiver -- [A] -- [B] -- [RP] -- [C] -- [D] -- sender

   1. A sends a PIM join toward the RP; intermediate processing sets up
      the RP->receiver branch.
   2. D registers the first data packet to the RP.
   3. The RP responds with a join toward the source, setting up the
      source->RP path.  *)
let test_figure3_rendezvous () =
  let topo = Pim_graph.Classic.line 5 in
  (* A=0, B=1, RP=2, C=3, D=4 *)
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let rp_set = Pim_core.Rp_set.single g (Addr.router 2) in
  let dep = Deployment.create_static ~config:Config.fast ~trace net ~rp_set in
  Router.join_local (Deployment.router dep 0) g;
  let got = ref 0 in
  Router.on_local_data (Deployment.router dep 0) (fun _ -> incr got);
  Engine.run ~until:5. eng;
  ignore
    (Engine.schedule_at eng 5. (fun () ->
         Router.send_local_data (Deployment.router dep 4) ~group:g ()));
  Engine.run ~until:20. eng;
  (* The event order of the figure: receiver join, then register, then
     the RP's join toward the source. *)
  let records = Trace.records trace in
  let time_of is node =
    List.find_map
      (fun (r : Trace.record) -> if is r.event && r.node = node then Some r.time else None)
      records
  in
  let is_join = function Event.Join _ -> true | _ -> false in
  let receiver_join = Option.get (time_of is_join 0) in
  let register = Option.get (time_of (function Event.Register _ -> true | _ -> false) 4) in
  let rp_join = Option.get (time_of is_join 2) in
  Alcotest.(check bool) "join before register" true (receiver_join < register);
  Alcotest.(check bool) "register before RP's join to source" true (register < rp_join);
  Alcotest.(check int) "data delivered" 1 !got

(* Figure 4: the exact forwarding state of the shared-tree setup.  The
   figure's callouts:
   - A: Multicast address G, RP-address C, oif = {1} (member LAN),
        iif = {toward B}, RP-timer started, WC bit.
   - B: same shape with oif toward A, iif toward C.
   - C (the RP): oif toward B, iif = NULL. *)
let test_figure4_state_table () =
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p b 0 1);
  (* A-B *)
  ignore (Topology.add_p2p b 1 2);
  (* B-C *)
  let member_lan = Topology.add_lan ~delay:0.001 b [ 0 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let rp_set = Pim_core.Rp_set.single g (Addr.router 2) in
  let igmp_config =
    { Pim_igmp.Router.default_config with Pim_igmp.Router.query_interval = 2.; max_resp = 0.5 }
  in
  let dep = Deployment.create_static ~config:Config.fast ~igmp_config net ~rp_set in
  (* The receiver is a real host: IGMP report -> DR -> PIM join. *)
  let host = Pim_igmp.Host.create net ~link:member_lan ~addr:(Addr.host ~router:0 7) () in
  Pim_igmp.Host.join host g;
  Engine.run ~until:10. eng;

  let lan_iface = Topology.iface_of_link topo 0 member_lan in
  let a = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 0)) g) in
  Alcotest.(check bool) "A wc+rp bits" true (a.Fwd.wc_bit && a.Fwd.rp_bit);
  Alcotest.(check bool) "A rp address = C" true (a.Fwd.rp = Some (Addr.router 2));
  Alcotest.(check (list int)) "A oif = member LAN" [ lan_iface ] (Fwd.live_oifs a ~now:10.);
  Alcotest.(check (option int)) "A iif toward B" (Some 0) a.Fwd.iif;
  Alcotest.(check bool) "A RP-timer started" true (a.Fwd.timers.rp_deadline < infinity);

  let bb = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 1)) g) in
  Alcotest.(check (list int)) "B oif toward A" [ 0 ] (Fwd.live_oifs bb ~now:10.);
  Alcotest.(check (option int)) "B iif toward C" (Some 1) bb.Fwd.iif;

  let c = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 2)) g) in
  Alcotest.(check (option int)) "C (RP) iif = NULL" None c.Fwd.iif;
  Alcotest.(check (list int)) "C oif toward B" [ 0 ] (Fwd.live_oifs c ~now:10.)

(* Figure 5: switching from the shared tree to the shortest-path tree.
   The figure's callouts:
   1. A creates (Sn,G) with SPT bit = 0.
   2. A's join toward Sn creates (Sn,G) at B.
   3. After packets from Sn arrive over the new path, the SPT bit is set
      and a prune {Sn, RP-bit} goes toward C (the RP). *)
let test_figure5_spt_switch () =
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 1);
  (* A-B *)
  ignore (Topology.add_p2p b 1 2);
  (* B-C(RP) *)
  ignore (Topology.add_p2p b 1 3);
  (* B-D (source behind D) *)
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let rp_set = Pim_core.Rp_set.single g (Addr.router 2) in
  let dep = Deployment.create_static ~config:Config.fast ~trace net ~rp_set in
  Router.join_local (Deployment.router dep 0) g;
  Engine.run ~until:5. eng;
  let d = Deployment.router dep 3 in
  for i = 0 to 7 do
    ignore (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
        Router.send_local_data d ~group:g ()))
  done;
  Engine.run ~until:30. eng;
  let src = Router.local_source_addr d in

  (* Callout 1/5: A's (Sn,G), created with SPT clear, now has SPT set. *)
  let ea = Option.get (Fwd.find_sg (Router.fib (Deployment.router dep 0)) g src) in
  Alcotest.(check bool) "A (Sn,G) SPT bit set after transition" true ea.Fwd.spt_bit;
  Alcotest.(check (option int)) "A (Sn,G) iif toward B" (Some 0) ea.Fwd.iif;

  (* Callout 3: B's (Sn,G) with iif toward D, oif toward A. *)
  let eb = Option.get (Fwd.find_sg (Router.fib (Deployment.router dep 1)) g src) in
  Alcotest.(check (option int)) "B (Sn,G) iif toward D" (Some 2) eb.Fwd.iif;
  Alcotest.(check bool) "B oifs include A" true (List.mem 0 (Fwd.live_oifs eb ~now:30.));
  Alcotest.(check bool) "B SPT bit set" true eb.Fwd.spt_bit;

  (* Callout 5: the prune toward the RP was sent (negative cache on the
     RP tree). *)
  let prune_events =
    Trace.records trace
    |> List.filter (fun (r : Trace.record) ->
           match r.event with Event.Prune _ -> r.node = 1 | _ -> false)
  in
  Alcotest.(check bool) "B pruned Sn off the shared tree" true (prune_events <> []);
  (* The entry creation order followed the figure: A before B's SPT
     entry confirmation... and A's entry existed before its SPT bit. *)
  let sn = Some (Addr.to_string src) in
  let entry_new_a =
    Trace.records trace
    |> List.find (fun (r : Trace.record) ->
           match r.event with
           | Event.Entry_install { route } -> r.node = 0 && route.source = sn
           | _ -> false)
  in
  let spt_bit_a =
    Trace.records trace
    |> List.find (fun (r : Trace.record) ->
           match r.event with Event.Spt_bit _ -> r.node = 0 | _ -> false)
  in
  Alcotest.(check bool) "created before transition completed" true
    (entry_new_a.time < spt_bit_a.time)

(* {2 Replay-harness edge cases}

   [Scenario.run] is the substrate under the shrinker and the scenario
   DSL's [topology derived]; pin its two degenerate receiver sets.  The
   override replaces the derived member list without re-drawing the RP
   or the source, so both runs reuse seed 56517's topology. *)

let test_replay_no_members () =
  let spec =
    { (Scenario.default_spec ~seed:56517 ~member_count:6) with
      Scenario.members_override = Some []
    }
  in
  let o = Scenario.run spec in
  Alcotest.(check (list int)) "no members joined" [] o.Scenario.members;
  Alcotest.(check (list pass)) "no deliveries to miscount" [] o.Scenario.wrong;
  (* Register/register-stop traffic alone must not leave state behind. *)
  Alcotest.(check int) "state drains" 0 o.Scenario.residual_entries;
  Alcotest.(check bool) "vacuously ok" true o.Scenario.ok

let test_replay_single_member () =
  let spec =
    { (Scenario.default_spec ~seed:56517 ~member_count:6) with
      Scenario.members_override = Some [ 4 ]
    }
  in
  let o = Scenario.run spec in
  Alcotest.(check (list int)) "one member" [ 4 ] o.Scenario.members;
  Alcotest.(check int) "rp drawn before the override" 8 o.Scenario.rp;
  Alcotest.(check int) "source drawn before the override" 21 o.Scenario.source;
  Alcotest.(check bool) "complete, duplicate-free, drains" true o.Scenario.ok

(* With [packets <= check_from] the checked window is empty: [wrong] is
   empty by construction and [ok] only says the state drained.  Seed
   56517 without the fallback loses probe 22 at members 4 and 18;
   checked from 24 on, the same 24-packet run is ok.  A negative packet
   count is rejected. *)
let test_replay_empty_window () =
  let spec =
    { (Scenario.default_spec ~seed:56517 ~member_count:6) with
      Scenario.packets = 24;
      switchover_fallback = false
    }
  in
  let lossy = Scenario.run spec in
  Alcotest.(check (list (triple int int int)))
    "checked from 22: the two losses" [ (4, 22, 0); (18, 22, 0) ] lossy.Scenario.wrong;
  Alcotest.(check bool) "checked from 22: fails" false lossy.Scenario.ok;
  let o = Scenario.run { spec with Scenario.check_from = 24 } in
  Alcotest.(check (list pass)) "nothing checked" [] o.Scenario.wrong;
  Alcotest.(check int) "state drains" 0 o.Scenario.residual_entries;
  Alcotest.(check bool) "ok = drains" true o.Scenario.ok;
  Alcotest.check_raises "negative packets"
    (Invalid_argument "Scenario.run: packets must be >= 0 (got -1)") (fun () ->
      ignore (Scenario.run { spec with Scenario.packets = -1 }))

let () =
  Alcotest.run "scenarios"
    [
      ( "paper-figures",
        [
          Alcotest.test_case "figure 3: rendezvous" `Quick test_figure3_rendezvous;
          Alcotest.test_case "figure 4: receiver join state" `Quick test_figure4_state_table;
          Alcotest.test_case "figure 5: spt switch state" `Quick test_figure5_spt_switch;
        ] );
      ( "replay-edges",
        [
          Alcotest.test_case "empty member override" `Quick test_replay_no_members;
          Alcotest.test_case "single member" `Quick test_replay_single_member;
          Alcotest.test_case "empty checked window" `Quick test_replay_empty_window;
        ] );
    ]
