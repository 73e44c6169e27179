(* Integration tests for the PIM sparse-mode protocol (Pim_core), one per
   mechanism of section 3 of the paper.

   The random-scenario property below runs unpinned: qcheck-alcotest honours
   QCHECK_SEED natively, so every CI run explores a fresh slice of the input
   space.  The counterexample the pinned era surfaced (seed=56517, the
   RP-tree/SPT switchover loss) is preserved, shrunk, in test_replay.ml. *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Fwd = Pim_mcast.Fwd
module Mdata = Pim_mcast.Mdata
module Config = Pim_core.Config
module Router = Pim_core.Router
module Rp_set = Pim_core.Rp_set
module Deployment = Pim_core.Deployment

(* substring search without external deps *)
module Astring_free = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let g = Group.of_index 1

let g2 = Group.of_index 2

let mk ?(config = Config.fast) ?(rp = 2) topo =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let rp_set = Rp_set.single g (Addr.router rp) in
  let dep = Deployment.create_static ~config net ~rp_set in
  (eng, net, dep)

(* The protocol counters of the deployment's net. *)
let count dep node k = Counters.get (Net.counters (Deployment.net dep)) ~node k

let total dep k = Counters.total (Net.counters (Deployment.net dep)) k

let deliveries dep node =
  let count = ref 0 in
  Router.on_local_data (Deployment.router dep node) (fun _ -> incr count);
  count

let send_n eng dep ~from ~start ~interval n =
  let r = Deployment.router dep from in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at eng
         (start +. (interval *. float_of_int i))
         (fun () -> Router.send_local_data r ~group:g ()))
  done

(* Section 3.2: join propagation builds the RP-rooted shared tree. *)
let test_shared_tree_setup () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  Engine.run ~until:5. eng;
  (* Receiver's DR. *)
  let e4 = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 4)) g) in
  Alcotest.(check bool) "wc" true e4.Fwd.wc_bit;
  Alcotest.(check bool) "rp bit" true e4.Fwd.rp_bit;
  Alcotest.(check (option int)) "iif toward RP" (Some 0) e4.Fwd.iif;
  (* Intermediate router. *)
  let e3 = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 3)) g) in
  Alcotest.(check (option int)) "iif toward RP" (Some 0) e3.Fwd.iif;
  Alcotest.(check (list int)) "oif toward receiver" [ 1 ] (Fwd.live_oifs e3 ~now:5.);
  (* RP terminates the join: null iif (section 3.2). *)
  let e2 = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 2)) g) in
  Alcotest.(check (option int)) "RP null iif" None e2.Fwd.iif;
  (* Routers on the far side of the RP have no state. *)
  Alcotest.(check int) "no state at 0" 0 (Fwd.count (Router.fib (Deployment.router dep 0)));
  Alcotest.(check int) "no state at 1" 0 (Fwd.count (Router.fib (Deployment.router dep 1)))

(* Section 3: register to the RP, RP joins back, end-to-end delivery. *)
let test_register_and_delivery () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  let got = deliveries dep 4 in
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. ~interval:1. 5;
  Engine.run ~until:25. eng;
  Alcotest.(check int) "all delivered" 5 !got;
  (* The RP holds an (S,G) entry toward the source. *)
  let rp = Deployment.router dep 2 in
  let src = Router.local_source_addr (Deployment.router dep 0) in
  let e = Option.get (Fwd.find_sg (Router.fib rp) g src) in
  Alcotest.(check (option int)) "RP (S,G) iif toward source" (Some 0) e.Fwd.iif;
  Alcotest.(check bool) "registers were sent" true
    (count dep 0 Counters.Registers_sent > 0)

(* Registers stop once the native path is up (our stand-in for the
   behaviour the later Register-Stop provides). *)
let test_register_suppression () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. ~interval:1. 20;
  Engine.run ~until:40. eng;
  let regs = count dep 0 Counters.Registers_sent in
  Alcotest.(check bool)
    (Printf.sprintf "registers only during setup (%d)" regs)
    true
    (regs >= 1 && regs <= 6)

(* Section 3.3: the switch to the shortest-path tree. *)
let test_spt_switch () =
  (* fig. 5 shape: receiver-A-B-C(RP), source behind D, D-B. *)
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  ignore (Topology.add_p2p b 1 3);
  let topo = Topology.freeze b in
  let eng, net, dep = mk ~rp:2 topo in
  Router.join_local (Deployment.router dep 0) g;
  let got = deliveries dep 0 in
  Engine.run ~until:5. eng;
  send_n eng dep ~from:3 ~start:5. ~interval:1. 10;
  Engine.run ~until:30. eng;
  (* A switched: (S,G) with SPT bit, iif toward B. *)
  let a = Deployment.router dep 0 in
  let src = Router.local_source_addr (Deployment.router dep 3) in
  let ea = Option.get (Fwd.find_sg (Router.fib a) g src) in
  Alcotest.(check bool) "A SPT bit" true ea.Fwd.spt_bit;
  Alcotest.(check bool) "A switched" true (count dep (Router.node a) Counters.Spt_switches > 0);
  (* B diverges: its shared iif (toward C) differs from its SPT iif
     (toward D) — it pruned Sn off the shared tree. *)
  let br = Deployment.router dep 1 in
  let eb = Option.get (Fwd.find_sg (Router.fib br) g src) in
  let star_b = Option.get (Fwd.find_star (Router.fib br) g) in
  Alcotest.(check bool) "B iifs diverge" true (eb.Fwd.iif <> star_b.Fwd.iif);
  Alcotest.(check bool) "B sent prunes" true (count dep (Router.node br) Counters.Prunes_sent > 0);
  ignore net;
  (* Steady state: packets reach A over the 2-hop shortest path D-B-A.
     (Data keeps flowing D-B-C natively — the RP stays joined to the
     source "in order to reach new receivers", section 3.10 — but the
     negative cache stops C from echoing it back down the shared tree.) *)
  let delays = ref [] in
  Router.on_local_data a (fun pkt ->
      match pkt.Pim_net.Packet.payload with
      | Mdata.Data i -> delays := (Engine.now eng -. i.Mdata.sent_at) :: !delays
      | _ -> ());
  send_n eng dep ~from:3 ~start:31. ~interval:1. 5;
  Engine.run ~until:45. eng;
  Alcotest.(check int) "late packets delivered" 5 (List.length !delays);
  List.iter
    (fun d -> Alcotest.(check (float 1e-6)) "2-hop SPT delay" 2. d)
    !delays;
  Alcotest.(check bool) "no duplicates overall" true (!got <= 15)

(* Section 3.3: a DR may stay on the shared tree indefinitely. *)
let test_policy_never () =
  let config = Config.(with_spt_policy Never fast) in
  let eng, _, dep = mk ~config (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  let got = deliveries dep 4 in
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. ~interval:1. 8;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "delivered via RP tree" 8 !got;
  (* The receiver never created a source-specific entry. *)
  let src = Router.local_source_addr (Deployment.router dep 0) in
  Alcotest.(check bool) "no (S,G) at receiver" true
    (Fwd.find_sg (Router.fib (Deployment.router dep 4)) g src = None);
  Alcotest.(check int) "no switches" 0
    (count dep 4 Counters.Spt_switches)

(* Section 3.3: the m-packets-in-n-seconds threshold policy. *)
let test_policy_threshold () =
  let config = Config.(with_spt_policy (Threshold { packets = 4; window = 100. }) fast) in
  let eng, _, dep = mk ~config (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  Engine.run ~until:5. eng;
  let receiver = Deployment.router dep 4 in
  let src = Router.local_source_addr (Deployment.router dep 0) in
  send_n eng dep ~from:0 ~start:5. ~interval:1. 3;
  Engine.run ~until:14. eng;
  Alcotest.(check bool) "below threshold: still shared" true
    (Fwd.find_sg (Router.fib receiver) g src = None);
  send_n eng dep ~from:0 ~start:15. ~interval:1. 3;
  Engine.run ~until:30. eng;
  Alcotest.(check bool) "above threshold: switched" true
    (Fwd.find_sg (Router.fib receiver) g src <> None)

(* Section 3.6: soft state drains after the receiver leaves. *)
let test_soft_state_teardown () =
  let eng, _, dep = mk (Classic.line 5) in
  let receiver = Deployment.router dep 4 in
  Router.join_local receiver g;
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "tree up" true (Deployment.total_entries dep >= 3);
  Router.leave_local receiver g;
  (* oif holdtime (1.8 s fast) + entry linger (1.8 s) + sweeps. *)
  Engine.run ~until:60. eng;
  Alcotest.(check int) "all state gone" 0 (Deployment.total_entries dep)

(* Section 3.4: periodic refresh keeps the tree alive indefinitely. *)
let test_soft_state_refresh () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  Engine.run ~until:120. eng;
  (* Many holdtimes later the shared tree still stands. *)
  Alcotest.(check bool) "tree survives" true
    (Fwd.find_star (Router.fib (Deployment.router dep 3)) g <> None)

(* Section 3.8: unicast routing changes move the tree. *)
let test_route_change_repair () =
  let eng, net, dep = mk ~rp:2 (Classic.ring 6) in
  (* ring 0-1-2-3-4-5; receiver 4 joins RP 2 via 3 (shortest). *)
  Router.join_local (Deployment.router dep 4) g;
  let got = deliveries dep 4 in
  Engine.run ~until:5. eng;
  let e4 = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 4)) g) in
  let iif_before = e4.Fwd.iif in
  send_n eng dep ~from:2 ~start:5. ~interval:1. 5;
  Engine.run ~until:15. eng;
  Alcotest.(check int) "before failure" 5 !got;
  (* Cut the 3-4 link: unicast reroutes 4->5->0->1->2; PIM must re-join. *)
  Net.set_link_up net 3 false;
  Engine.run ~until:20. eng;
  let e4' = Option.get (Fwd.find_star (Router.fib (Deployment.router dep 4)) g) in
  Alcotest.(check bool) "iif changed" true (e4'.Fwd.iif <> iif_before);
  send_n eng dep ~from:2 ~start:20. ~interval:1. 5;
  Engine.run ~until:35. eng;
  Alcotest.(check int) "delivery continues on new path" 10 !got

(* Section 3.9: RP failure and failover to an alternate. *)
let test_rp_failover () =
  let topo = Classic.grid 3 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let config =
    {
      Config.fast with
      Config.rp_reach_period = 1.;
      (* Must exceed beacon period + worst-case propagation to the
         receiver, or the receiver fails over spuriously. *)
      rp_timeout = 6.;
      sweep_interval = 0.5;
      spt_policy = Config.Never;
    }
  in
  let rp_set = Rp_set.of_list [ (g, [ Addr.router 4; Addr.router 2 ]) ] in
  let dep = Deployment.create_static ~config net ~rp_set in
  let receiver = Deployment.router dep 8 in
  Router.join_local receiver g;
  let got = deliveries dep 8 in
  Engine.run ~until:5. eng;
  Alcotest.(check (option string)) "primary first" (Some "10.0.0.4")
    (Option.map Addr.to_string (Router.current_rp receiver g));
  send_n eng dep ~from:0 ~start:5. ~interval:0.5 80;
  ignore (Engine.schedule_at eng 20. (fun () -> Net.set_node_up net 4 false));
  Engine.run ~until:60. eng;
  Alcotest.(check (option string)) "failed over" (Some "10.0.0.2")
    (Option.map Addr.to_string (Router.current_rp receiver g));
  Alcotest.(check bool) "failover counted" true
    (count dep (Router.node receiver) Counters.Rp_failovers > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delivery resumed (%d)" !got)
    true (!got > 40)

(* Section 3.7: join suppression on multi-access networks. *)
let test_lan_join_suppression () =
  (* Upstream 0; LAN {0,1,2}; 1 and 2 both have members; RP behind 0. *)
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 3);
  ignore (Topology.add_lan ~delay:0.01 b [ 0; 1; 2 ]);
  let topo = Topology.freeze b in
  let eng, _, dep = mk ~rp:3 topo in
  Router.join_local (Deployment.router dep 1) g;
  Router.join_local (Deployment.router dep 2) g;
  Engine.run ~until:60. eng;
  let jp r = count dep r Counters.Jp_msgs_sent in
  (* Over 10 refresh periods, unsuppressed peers would send ~10 joins
     each; suppression keeps the combined count near one per period. *)
  let total = jp 1 + jp 2 in
  Alcotest.(check bool)
    (Printf.sprintf "suppressed (%d joins from the two peers)" total)
    true
    (total < 16)

(* Section 3.7: prune override keeps the LAN alive for remaining
   receivers. *)
let test_lan_prune_override () =
  (* 3 --- 0; LAN {0,1,2}; members behind 1 and 2; source behind 3. *)
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 3);
  ignore (Topology.add_lan ~delay:0.01 b [ 0; 1; 2 ]);
  let topo = Topology.freeze b in
  let eng, _, dep = mk ~rp:3 topo in
  Router.join_local (Deployment.router dep 1) g;
  Router.join_local (Deployment.router dep 2) g;
  let got1 = deliveries dep 1 in
  let got2 = deliveries dep 2 in
  Engine.run ~until:5. eng;
  send_n eng dep ~from:3 ~start:5. ~interval:0.5 80;
  (* Router 1's member leaves mid-stream: 1 prunes on the LAN; 2 must
     override and keep receiving without interruption. *)
  ignore
    (Engine.schedule_at eng 20. (fun () -> Router.leave_local (Deployment.router dep 1) g));
  Engine.run ~until:60. eng;
  Alcotest.(check bool) "receiver 2 got everything" true (!got2 >= 78);
  Alcotest.(check bool) "receiver 1 stopped early" true (!got1 < !got2);
  Alcotest.(check bool) "an override was sent" true
    (total dep Counters.Joins_sent > 0)

(* Two groups with different RPs stay isolated. *)
let test_group_isolation () =
  let topo = Classic.line 5 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let rp_set = Rp_set.of_list [ (g, [ Addr.router 1 ]); (g2, [ Addr.router 3 ]) ] in
  let dep = Deployment.create_static ~config:Config.fast net ~rp_set in
  Router.join_local (Deployment.router dep 4) g;
  Router.join_local (Deployment.router dep 0) g2;
  let got_g = deliveries dep 4 in
  let got_g2 = deliveries dep 0 in
  Engine.run ~until:5. eng;
  let r0 = Deployment.router dep 0 in
  let r4 = Deployment.router dep 4 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
           Router.send_local_data r0 ~group:g ();
           Router.send_local_data r4 ~group:g2 ()))
  done;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "g delivered" 5 !got_g;
  Alcotest.(check int) "g2 delivered" 5 !got_g2

(* Copies of each data packet a member received, keyed by (seq, member):
   the runs below have one source and one group. *)
let count_copies copies m pkt =
  match pkt.Pim_net.Packet.payload with
  | Mdata.Data i ->
    let key = (i.Mdata.seq, m) in
    Hashtbl.replace copies key (1 + Option.value ~default:0 (Hashtbl.find_opt copies key))
  | _ -> ()

let copies_of copies ~seq m = Option.value ~default:0 (Hashtbl.find_opt copies (seq, m))

(* Steady-state delivery is duplicate-free on arbitrary topologies. *)
let test_no_duplicates_random () =
  List.iter
    (fun seed ->
      let prng = Pim_util.Prng.create seed in
      let topo = Pim_graph.Random_graph.generate ~prng ~nodes:25 ~degree:4. () in
      let members = Pim_graph.Random_graph.pick_members ~prng ~nodes:25 ~count:6 in
      let eng = Engine.create () in
      let net = Net.create eng topo in
      let rp_set = Rp_set.single g (Addr.router (List.hd members)) in
      let dep = Deployment.create_static ~config:Config.fast net ~rp_set in
      let copies = Hashtbl.create 256 in
      List.iter
        (fun m ->
          let r = Deployment.router dep m in
          Router.join_local r g;
          Router.on_local_data r (count_copies copies m))
        members;
      let source = Deployment.router dep ((List.hd members + 1) mod 25) in
      Engine.run ~until:10. eng;
      (* One continuous stream; SPT transitions (shared-tree data, join
         toward source, SPT bit, divergence prune) settle over the first
         packets, so assertions are on the settled tail. *)
      for i = 0 to 39 do
        ignore
          (Engine.schedule_at eng
             (10. +. (0.5 *. float_of_int i))
             (fun () -> Router.send_local_data source ~group:g ()))
      done;
      Engine.run ~until:60. eng;
      for seq = 30 to 39 do
        List.iter
          (fun m ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d seq %d member %d exactly once" seed seq m)
              1 (copies_of copies ~seq m))
          members
      done)
    [ 11; 22; 33 ]

(* The RP as a member's DR and the source's DR at once (degenerate but
   legal placements). *)
let test_rp_is_dr () =
  let eng, _, dep = mk ~rp:0 (Classic.line 3) in
  let rp = Deployment.router dep 0 in
  Router.join_local rp g;
  let got_rp = deliveries dep 0 in
  Router.join_local (Deployment.router dep 2) g;
  let got_far = deliveries dep 2 in
  Engine.run ~until:5. eng;
  (* The RP itself sends. *)
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
           Router.send_local_data rp ~group:g ()))
  done;
  Engine.run ~until:20. eng;
  Alcotest.(check int) "RP-local member" 5 !got_rp;
  Alcotest.(check int) "remote member" 5 !got_far

(* The ASCII shared-tree rendering reflects the live entries. *)
let test_pp_shared_tree () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  Engine.run ~until:5. eng;
  let s = Format.asprintf "%a" (Deployment.pp_shared_tree dep g) () in
  (* RP (router 2) is the root; the member hangs at the bottom. *)
  Alcotest.(check bool) "names the group" true
    (Astring_free.contains s "225.0.0.1" || Astring_free.contains s "shared tree");
  Alcotest.(check bool) "rp tagged" true (Astring_free.contains s "router 2 (RP)");
  Alcotest.(check bool) "member tagged" true (Astring_free.contains s "router 4 (members)");
  Alcotest.(check bool) "transit present" true (Astring_free.contains s "router 3");
  (* Off-tree routers are absent. *)
  Alcotest.(check bool) "router 0 absent" false (Astring_free.contains s "router 0");
  let empty = Format.asprintf "%a" (Deployment.pp_shared_tree dep g2) () in
  Alcotest.(check bool) "no tree message" true (Astring_free.contains empty "no shared tree")

(* The random scenario, hand-built on the routers: everything derived
   from [seed], steady-state delivery complete and duplicate-free, and
   all state drained after everyone leaves.  Kept independent of
   [Pim_exp.Scenario], which replays the same scenario through the DSL
   runner, so the two can be compared. *)
let reference_scenario ~seed ~member_count =
  let prng = Pim_util.Prng.create seed in
  let nodes = 12 + Pim_util.Prng.int prng 14 in
  let topo =
    Pim_graph.Random_graph.generate ~prng ~nodes
      ~degree:(3. +. Pim_util.Prng.float prng 2.)
      ()
  in
  let members = Pim_graph.Random_graph.pick_members ~prng ~nodes ~count:member_count in
  let rp = List.nth members (Pim_util.Prng.int prng member_count) in
  let source = Pim_util.Prng.int prng nodes in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let rp_set = Rp_set.single g (Addr.router rp) in
  let dep = Deployment.create_static ~config:Config.fast net ~rp_set in
  let copies = Hashtbl.create 256 in
  List.iter
    (fun m ->
      let r = Deployment.router dep m in
      Router.join_local r g;
      Router.on_local_data r (count_copies copies m))
    members;
  Engine.run ~until:10. eng;
  let sr = Deployment.router dep source in
  for i = 0 to 29 do
    ignore
      (Engine.schedule_at eng
         (10. +. (0.5 *. float_of_int i))
         (fun () -> Router.send_local_data sr ~group:g ()))
  done;
  Engine.run ~until:60. eng;
  (* Steady-state tail: every member exactly one copy of each packet. *)
  let steady_ok =
    List.for_all
      (fun seq -> List.for_all (fun m -> copies_of copies ~seq m = 1) members)
      (List.init 8 (fun i -> 22 + i))
  in
  (* Everyone leaves; all multicast state must drain.  The worst-case
     unwind is the RP's source join (kept while its entry lives,
     section 3.10) plus one oif holdtime per hop of stale chain:
     roughly 6 x 18 s at the fast timer scale. *)
  List.iter (fun m -> Router.leave_local (Deployment.router dep m) g) members;
  Engine.run ~until:220. eng;
  steady_ok && Deployment.total_entries dep = 0

(* Property: on arbitrary random topologies and memberships, steady-state
   PIM delivery is complete and duplicate-free, and all state drains after
   everyone leaves. *)
let prop_random_scenario =
  QCheck.Test.make ~name:"random scenario: complete, duplicate-free, drains" ~count:12
    QCheck.(pair (int_range 0 100000) (int_range 2 6))
    (fun (seed, member_count) -> reference_scenario ~seed ~member_count)

(* [Scenario.run] (the DSL replay behind [pimsim trace record]) and the
   hand-built reference agree on pinned pairs, three failing ones among
   them (the open delivery losses on ROADMAP). *)
let test_scenario_matches_reference () =
  List.iter
    (fun (seed, member_count, expected) ->
      let name = Printf.sprintf "seed %d members %d" seed member_count in
      let reference = reference_scenario ~seed ~member_count in
      Alcotest.(check bool) (name ^ ": reference verdict") expected reference;
      Alcotest.(check bool) (name ^ ": Scenario.run agrees") reference
        (Pim_exp.Scenario.run (Pim_exp.Scenario.default_spec ~seed ~member_count)).ok)
    [
      (56517, 6, true);
      (4976, 3, false);
      (1873, 3, false);
      (4547, 5, false);
      (11, 2, true);
      (99, 4, true);
    ]

(* Protocol independence (section 2): the identical scenario over the
   oracle, distance-vector and link-state substrates yields identical
   deliveries and identical multicast state once the substrate has
   converged. *)
let test_protocol_independence () =
  let run make_ribs =
    let topo = Classic.ring 6 in
    let eng = Engine.create () in
    let net = Net.create eng topo in
    let ribs, warmup = make_ribs net in
    Engine.run ~until:warmup eng;
    let rp_set = Rp_set.single g (Addr.router 2) in
    let dep = Deployment.create ~config:Config.fast ~net ~ribs ~rp_set () in
    let receiver = Deployment.router dep 4 in
    Router.join_local receiver g;
    let got = ref 0 in
    Router.on_local_data receiver (fun _ -> incr got);
    let t0 = Engine.now eng in
    Engine.run ~until:(t0 +. 10.) eng;
    let sender = Deployment.router dep 2 in
    for i = 0 to 19 do
      ignore
        (Engine.schedule_at eng
           (t0 +. 10. +. float_of_int i)
           (fun () -> Router.send_local_data sender ~group:g ()))
    done;
    Engine.run ~until:(t0 +. 45.) eng;
    (!got, Deployment.total_entries dep)
  in
  let static net =
    let s = Pim_routing.Static.create net in
    (Pim_routing.Static.rib s, 0.)
  in
  let dv net =
    let config =
      {
        Pim_routing.Distance_vector.default_config with
        Pim_routing.Distance_vector.period = 3.;
        timeout = 20.;
        triggered_delay = 0.2;
      }
    in
    let d = Pim_routing.Distance_vector.create ~config net in
    (Pim_routing.Distance_vector.rib d, 20.)
  in
  let ls net =
    let config = { Pim_routing.Link_state.refresh_period = 30.; spf_delay = 0.2 } in
    let l = Pim_routing.Link_state.create ~config net in
    (Pim_routing.Link_state.rib l, 10.)
  in
  let got_s, entries_s = run static in
  let got_dv, entries_dv = run dv in
  let got_ls, entries_ls = run ls in
  Alcotest.(check int) "dv delivers like the oracle" got_s got_dv;
  Alcotest.(check int) "ls delivers like the oracle" got_s got_ls;
  Alcotest.(check int) "dv same multicast state" entries_s entries_dv;
  Alcotest.(check int) "ls same multicast state" entries_s entries_ls

(* IGMP end to end: hosts, DR election on a shared LAN, delivery. *)
let test_igmp_end_to_end () =
  (* LAN {1,2} with hosts; both routers uplink to 0 (RP). *)
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 0 2);
  let lan = Topology.add_lan ~delay:0.001 b [ 1; 2 ] in
  let src_lan = Topology.add_lan ~delay:0.001 b [ 0 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let rp_set = Rp_set.single g (Addr.router 0) in
  let igmp_config =
    { Pim_igmp.Router.default_config with Pim_igmp.Router.query_interval = 2.; max_resp = 0.5 }
  in
  let dep = Deployment.create_static ~config:Config.fast ~igmp_config net ~rp_set in
  ignore dep;
  let host = Pim_igmp.Host.create net ~link:lan ~addr:(Addr.host ~router:1 5) () in
  let got = ref 0 in
  Pim_igmp.Host.on_data host (fun _ -> incr got);
  Pim_igmp.Host.join host g;
  Engine.run ~until:5. eng;
  let sender = Pim_igmp.Host.create net ~link:src_lan ~addr:(Addr.host ~router:0 5) () in
  for _ = 1 to 5 do
    Pim_igmp.Host.send_data sender ~group:g ()
  done;
  Engine.run ~until:15. eng;
  Alcotest.(check int) "host delivery, no LAN duplicates" 5 !got

(* An IGMP RP hint naming a router outside the topology: the RP reads as
   unreachable, so the DR keeps it as its only candidate and has no
   upstream toward it, instead of failing the lookup. *)
let test_hint_out_of_range_rp () =
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  let lan = Topology.add_lan ~delay:0.001 b [ 0 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let igmp_config =
    { Pim_igmp.Router.default_config with Pim_igmp.Router.query_interval = 2.; max_resp = 0.5 }
  in
  let dep = Deployment.create_static ~config:Config.fast ~igmp_config net ~rp_set:Rp_set.empty in
  let rp = Addr.router 99 in
  let host =
    Pim_igmp.Host.create net ~link:lan ~addr:(Addr.host ~router:0 5) ~rps_for:(fun _ -> [ rp ]) ()
  in
  Pim_igmp.Host.join host g;
  Engine.run ~until:10. eng;
  Router.send_local_data (Deployment.router dep 2) ~group:g ();
  Engine.run ~until:20. eng;
  Alcotest.(check bool) "the hinted RP" true
    (Option.equal Addr.equal (Router.current_rp (Deployment.router dep 0) g) (Some rp))

(* Large-scale soak: a 100-router wide-area network with 40 sparse groups,
   all sending; delivery must be essentially complete and duplicate-free
   at steady state. *)
let test_large_scale_soak () =
  let prng = Pim_util.Prng.create 2024 in
  let nodes = 100 in
  let topo = Pim_graph.Random_graph.generate ~prng ~nodes ~degree:4. () in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let groups = 40 in
  let workloads =
    List.init groups (fun k ->
        let members = Pim_graph.Random_graph.pick_members ~prng ~nodes ~count:4 in
        (Group.of_index (k + 1), members, Pim_util.Prng.int prng nodes))
  in
  let rp_set =
    Rp_set.of_list
      (List.map (fun (gg, members, _) -> (gg, [ Addr.router (List.hd members) ])) workloads)
  in
  (* Shared-tree-only keeps the run free of per-member SPT transitions,
     so the check isolates scale effects. *)
  let dep =
    Deployment.create_static ~config:Config.(with_spt_policy Never fast) net ~rp_set
  in
  let expected = ref 0 in
  let got = ref 0 in
  List.iter
    (fun (gg, members, _) ->
      List.iter
        (fun m ->
          let r = Deployment.router dep m in
          Router.join_local r gg;
          Router.on_local_data r (fun pkt ->
              match (pkt.Pim_net.Packet.payload, pkt.Pim_net.Packet.dst) with
              | Mdata.Data _, Pim_net.Packet.Multicast g' when Group.equal g' gg -> incr got
              | _ -> ()))
        members)
    workloads;
  Engine.run ~until:15. eng;
  List.iteri
    (fun k (gg, members, source) ->
      for i = 0 to 24 do
        expected := !expected + List.length members;
        ignore
          (Engine.schedule_at eng
             (15. +. float_of_int i +. (0.01 *. float_of_int k))
             (fun () -> Router.send_local_data (Deployment.router dep source) ~group:gg ()))
      done)
    workloads;
  Engine.run ~until:75. eng;
  Alcotest.(check bool)
    (Printf.sprintf "soak delivery >= 95%% (%d/%d)" !got !expected)
    true
    (float_of_int !got >= 0.95 *. float_of_int !expected);
  Alcotest.(check bool) "no flood-scale blowup" true
    (total dep Counters.Data_dropped_no_state < !expected)

(* Edge cases around group configuration and senders without receivers. *)
let test_group_without_rp_ignored () =
  let eng, net, dep = mk (Classic.line 3) in
  ignore net;
  (* g2 has no RP mapping: PIM sparse mode must not touch it. *)
  Router.join_local (Deployment.router dep 2) g2;
  Engine.run ~until:10. eng;
  Alcotest.(check int) "no state for unmapped group" 0 (Deployment.total_entries dep);
  (* Sending to it is also a no-op. *)
  ignore
    (Engine.schedule_at eng 10. (fun () ->
         Router.send_local_data (Deployment.router dep 0) ~group:g2 ()));
  Engine.run ~until:20. eng;
  Alcotest.(check int) "still no state" 0 (Deployment.total_entries dep)

let test_sender_without_receivers () =
  let eng, _, dep = mk (Classic.line 4) in
  (* No member anywhere; the source registers to the RP, which joins
     toward it — but the data must not spread beyond the source->RP
     path. *)
  send_n eng dep ~from:0 ~start:2. ~interval:1. 10;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "no state beyond the RP path" 0
    (Fwd.count (Router.fib (Deployment.router dep 3)));
  (* RP (node 2) holds the (S,G); routers 0 and 1 are on the join path. *)
  let src = Router.local_source_addr (Deployment.router dep 0) in
  Alcotest.(check bool) "rp joined the source" true
    (Fwd.find_sg (Router.fib (Deployment.router dep 2)) g src <> None);
  Alcotest.(check int) "nobody delivered" 0
    (total dep Counters.Data_delivered_local)

let test_receiver_is_source () =
  (* A member that also sends hears its own packets (loopback via the
     local olist). *)
  let eng, _, dep = mk (Classic.line 3) in
  let r = Deployment.router dep 0 in
  Router.join_local r g;
  let got = deliveries dep 0 in
  Engine.run ~until:5. eng;
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
           Router.send_local_data r ~group:g ()))
  done;
  Engine.run ~until:20. eng;
  (* One early packet may come back a second time via the register/decap
     path before the (S,G) entry exists — the usual '94 transition
     window. *)
  Alcotest.(check bool) (Printf.sprintf "hears itself (%d)" !got) true (!got >= 5 && !got <= 7)

let test_double_join_leave_idempotent () =
  let eng, _, dep = mk (Classic.line 3) in
  let r = Deployment.router dep 2 in
  Router.join_local r g;
  Router.join_local r g;
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "one entry" true (Fwd.count (Router.fib r) = 1);
  Router.leave_local r g;
  Router.leave_local r g;
  Engine.run ~until:60. eng;
  Alcotest.(check int) "cleanly gone" 0 (Deployment.total_entries dep)

let test_two_sources_one_group () =
  let eng, _, dep = mk (Classic.line 5) in
  Router.join_local (Deployment.router dep 4) g;
  let got = deliveries dep 4 in
  Engine.run ~until:5. eng;
  (* Sources behind opposite ends of the line. *)
  send_n eng dep ~from:0 ~start:5. ~interval:1. 5;
  let r3 = Deployment.router dep 3 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (5.5 +. float_of_int i) (fun () ->
           Router.send_local_data r3 ~group:g ()))
  done;
  (* Check the SPT state while both streams are fresh (source-specific
     entries are soft state and expire with the flows). *)
  Engine.run ~until:14. eng;
  let fib4 = Router.fib (Deployment.router dep 4) in
  Alcotest.(check bool) "two (S,G) entries" true
    (Fwd.find_sg fib4 g (Router.local_source_addr (Deployment.router dep 0)) <> None
    && Fwd.find_sg fib4 g (Router.local_source_addr r3) <> None);
  Engine.run ~until:30. eng;
  Alcotest.(check bool)
    (Printf.sprintf "both sources delivered (%d)" !got)
    true
    (!got >= 8 && !got <= 12)

let () =
  Alcotest.run "pim_core"
    [
      ( "shared-tree",
        [
          Alcotest.test_case "setup (3.2)" `Quick test_shared_tree_setup;
          Alcotest.test_case "register and delivery" `Quick test_register_and_delivery;
          Alcotest.test_case "register suppression" `Quick test_register_suppression;
        ] );
      ( "spt",
        [
          Alcotest.test_case "switch (3.3)" `Quick test_spt_switch;
          Alcotest.test_case "policy Never" `Quick test_policy_never;
          Alcotest.test_case "policy Threshold" `Quick test_policy_threshold;
        ] );
      ( "soft-state",
        [
          Alcotest.test_case "teardown (3.6)" `Quick test_soft_state_teardown;
          Alcotest.test_case "refresh (3.4)" `Quick test_soft_state_refresh;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "route change repair (3.8)" `Quick test_route_change_repair;
          Alcotest.test_case "rp failover (3.9)" `Quick test_rp_failover;
        ] );
      ( "lan",
        [
          Alcotest.test_case "join suppression (3.7)" `Quick test_lan_join_suppression;
          Alcotest.test_case "prune override (3.7)" `Quick test_lan_prune_override;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pinned seeds" `Quick Sweep_reference.test_pinned;
          QCheck_alcotest.to_alcotest (Sweep_reference.prop Sweep_reference.Static ~count:40);
          QCheck_alcotest.to_alcotest (Sweep_reference.prop Sweep_reference.Elected ~count:8);
          QCheck_alcotest.to_alcotest (Sweep_reference.prop Sweep_reference.Hints ~count:20);
        ] );
      ( "general",
        [
          Alcotest.test_case "group isolation" `Quick test_group_isolation;
          Alcotest.test_case "no duplicates on random graphs" `Slow test_no_duplicates_random;
          QCheck_alcotest.to_alcotest prop_random_scenario;
          Alcotest.test_case "Scenario.run matches the reference" `Quick
            test_scenario_matches_reference;
          Alcotest.test_case "rp is dr" `Quick test_rp_is_dr;
          Alcotest.test_case "shared tree rendering" `Quick test_pp_shared_tree;
          Alcotest.test_case "protocol independence" `Quick test_protocol_independence;
          Alcotest.test_case "igmp end to end" `Quick test_igmp_end_to_end;
          Alcotest.test_case "hint naming an out-of-range RP" `Quick test_hint_out_of_range_rp;
          Alcotest.test_case "large-scale soak" `Slow test_large_scale_soak;
          Alcotest.test_case "group without rp ignored" `Quick test_group_without_rp_ignored;
          Alcotest.test_case "sender without receivers" `Quick test_sender_without_receivers;
          Alcotest.test_case "receiver is source" `Quick test_receiver_is_source;
          Alcotest.test_case "double join/leave idempotent" `Quick
            test_double_join_leave_idempotent;
          Alcotest.test_case "two sources one group" `Quick test_two_sources_one_group;
        ] );
    ]
