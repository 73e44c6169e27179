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

(* Tests for the MOSPF-style link-state multicast baseline (Pim_mospf). *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Group = Pim_net.Group
module Mospf = Pim_mospf.Router
module Prng = Pim_util.Prng
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr
module Lsdb_reference = Mospf_reference.Lsdb

let g = Group.of_index 1

let g2 = Group.of_index 2

let mk topo =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let dep = Mospf.Deployment.create net in
  (eng, net, dep)

let send_n eng dep ~from ~start n =
  let r = Mospf.Deployment.router dep from in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at eng (start +. float_of_int i) (fun () ->
           Mospf.send_local_data r ~group:g ()))
  done

(* Membership floods to every router — the state cost the paper cites. *)
let test_membership_floods_everywhere () =
  let eng, net, dep = mk (Classic.grid 3 3) in
  Mospf.join_local (Mospf.Deployment.router dep 8) g;
  Engine.run ~until:10. eng;
  for u = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "router %d knows member at 8" u)
      true
      (Mospf.knows_member (Mospf.Deployment.router dep u) 8 g)
  done;
  (* 9 routers x 1 membership pair. *)
  Alcotest.(check int) "total membership entries" 9 (Mospf.Deployment.total_membership_entries dep);
  Alcotest.(check bool) "lsas flooded" true
    (Counters.total (Net.counters net) Counters.Lsa_sent > 0)

let test_delivery_on_spt () =
  let eng, net, dep = mk (Classic.grid 3 3) in
  let members = [ 2; 6; 8 ] in
  let counts = Array.make 9 0 in
  List.iter
    (fun m ->
      Mospf.join_local (Mospf.Deployment.router dep m) g;
      Mospf.on_local_data (Mospf.Deployment.router dep m) (fun _ -> counts.(m) <- counts.(m) + 1))
    members;
  Engine.run ~until:10. eng;
  send_n eng dep ~from:0 ~start:10. 5;
  Engine.run ~until:30. eng;
  List.iter
    (fun m -> Alcotest.(check int) (Printf.sprintf "member %d" m) 5 counts.(m))
    members;
  Alcotest.(check bool) "dijkstras ran" true
    (Counters.total (Net.counters net) Counters.Spf_runs > 0)

(* The forwarding cache amortises Dijkstra: per (source, group), not per
   packet. *)
let test_spf_cached () =
  let eng, net, dep = mk (Classic.line 4) in
  Mospf.join_local (Mospf.Deployment.router dep 3) g;
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. 10;
  Engine.run ~until:30. eng;
  let runs = Counters.total (Net.counters net) Counters.Spf_runs in
  (* 4 routers, one (source, group): roughly one run per on-tree router,
     not one per packet per router. *)
  Alcotest.(check bool) (Printf.sprintf "cached (%d runs)" runs) true (runs <= 8)

(* The cached plans read as (S,G) rows, S the source router's address;
   reading them computes nothing and leaves the cache as it was. *)
let test_rows_read_the_cache () =
  let module Fwd = Pim_mcast.Fwd in
  let eng, net, dep = mk (Classic.line 4) in
  Mospf.join_local (Mospf.Deployment.router dep 3) g;
  Engine.run ~until:5. eng;
  Alcotest.(check int) "no plan, no row" 0 (List.length (Mospf.rows (Mospf.Deployment.router dep 1)));
  send_n eng dep ~from:0 ~start:5. 2;
  Engine.run ~until:15. eng;
  let runs () = Counters.total (Net.counters net) Counters.Spf_runs in
  let before = runs () in
  let render u =
    List.map (fun e -> Format.asprintf "%a" Fwd.pp_entry e) (Mospf.rows (Mospf.Deployment.router dep u))
  in
  let first = List.init 4 render in
  Alcotest.(check (list (list string))) "rows read twice" first (List.init 4 render);
  ignore (Mospf.plan_for (Mospf.Deployment.router dep 2) 0 g);
  Alcotest.(check int) "no SPF run for reading, and the plans stay cached" before (runs ());
  let row u = List.hd (Mospf.rows (Mospf.Deployment.router dep u)) in
  let topo = Net.topo net in
  let toward u v =
    fst
      (List.find
         (fun (_, lid) -> Topology.others_on_link topo lid u = [ v ])
         (Array.to_list (Topology.ifaces topo u)))
  in
  Alcotest.(check bool) "S is router 0" true ((row 2).Fwd.source = Some (Addr.router 0));
  Alcotest.(check (option int)) "first hop: no iif" None (row 0).Fwd.iif;
  Alcotest.(check (option int)) "transit iif" (Some (toward 2 1)) (row 2).Fwd.iif;
  Alcotest.(check (list int)) "transit oif" [ toward 2 3 ] (Fwd.live_oifs (row 2) ~now:15.);
  Alcotest.(check (list int)) "member's local oif" [ -1 ] (Fwd.live_oifs (row 3) ~now:15.)

(* A periodic LSA refresh that carries the membership already held keeps
   the plans: one packet at t=10 still leaves a row at the receiver at
   t=20, after two refreshes from every router, and a second packet then
   runs no SPF. *)
let test_refresh_keeps_plans () =
  let eng = Engine.create () in
  let net = Net.create eng (Classic.grid 3 3) in
  let dep = Mospf.Deployment.create ~lsa_refresh:5. net in
  let receiver = Mospf.Deployment.router dep 8 in
  let got = ref 0 in
  Mospf.join_local receiver g;
  Mospf.on_local_data receiver (fun _ -> incr got);
  send_n eng dep ~from:0 ~start:10. 1;
  Engine.run ~until:20. eng;
  let runs () = Counters.total (Net.counters net) Counters.Spf_runs in
  let before = runs () in
  Alcotest.(check int) "receiver's row survives the refreshes" 1 (List.length (Mospf.rows receiver));
  send_n eng dep ~from:0 ~start:20. 1;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "both packets delivered" 2 !got;
  Alcotest.(check int) "no SPF run across a refresh" before (runs ())

(* Membership changes invalidate the cache and reroute. *)
let test_membership_change_invalidates () =
  let eng, _, dep = mk (Classic.line 4) in
  Mospf.join_local (Mospf.Deployment.router dep 3) g;
  let got2 = ref 0 in
  Mospf.on_local_data (Mospf.Deployment.router dep 2) (fun _ -> incr got2);
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. 3;
  Engine.run ~until:15. eng;
  Alcotest.(check int) "not a member yet" 0 !got2;
  (* Router 2 becomes a member mid-stream. *)
  Mospf.join_local (Mospf.Deployment.router dep 2) g;
  Engine.run ~until:17. eng;
  send_n eng dep ~from:0 ~start:17. 3;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "receives after joining" 3 !got2

let test_leave_stops_delivery () =
  let eng, _, dep = mk (Classic.line 4) in
  let r3 = Mospf.Deployment.router dep 3 in
  Mospf.join_local r3 g;
  let got = ref 0 in
  Mospf.on_local_data r3 (fun _ -> incr got);
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. 3;
  Engine.run ~until:15. eng;
  Alcotest.(check int) "before leave" 3 !got;
  Mospf.leave_local r3 g;
  Engine.run ~until:17. eng;
  send_n eng dep ~from:0 ~start:17. 3;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "no delivery after leave" 3 !got

let test_link_failure_reroutes () =
  let eng, net, dep = mk (Classic.ring 4) in
  let r2 = Mospf.Deployment.router dep 2 in
  Mospf.join_local r2 g;
  let got = ref 0 in
  Mospf.on_local_data r2 (fun _ -> incr got);
  Engine.run ~until:5. eng;
  send_n eng dep ~from:0 ~start:5. 3;
  Engine.run ~until:15. eng;
  let before = !got in
  Alcotest.(check int) "before failure" 3 before;
  (* Cut one side of the ring; the SPT recomputes around it. *)
  Net.set_link_up net 0 false;
  send_n eng dep ~from:0 ~start:16. 3;
  Engine.run ~until:30. eng;
  Alcotest.(check int) "after reroute" 6 !got

let test_groups_independent () =
  let eng, _, dep = mk (Classic.line 3) in
  Mospf.join_local (Mospf.Deployment.router dep 2) g;
  let got = ref 0 in
  Mospf.on_local_data (Mospf.Deployment.router dep 2) (fun _ -> incr got);
  Engine.run ~until:5. eng;
  (* Send to the OTHER group: nothing must arrive. *)
  let r0 = Mospf.Deployment.router dep 0 in
  ignore (Engine.schedule_at eng 5. (fun () -> Mospf.send_local_data r0 ~group:g2 ()));
  Engine.run ~until:15. eng;
  Alcotest.(check int) "no cross-group delivery" 0 !got

(* Every router's plan, read off the deployment's shared source tree,
   equals the plan its own Dijkstra gave before trees were shared — under
   membership churn, LSAs still in flight, link and node failures and
   router restarts, on graphs with LANs and equal-cost ties.  Plans are
   asked both right after a change (cache invalidation) and after the
   network settles. *)
let prop_shared_tree_matches_reference =
  QCheck.Test.make ~name:"shared-tree plans equal per-router Dijkstra plans" ~count:150
    QCheck.(pair (int_bound 100000) (int_range 1 8))
    (fun (seed, steps) ->
      let prng = Prng.create seed in
      let topo = Small_topo.random prng in
      let n = Topology.n_nodes topo in
      let eng, net, dep = mk topo in
      let ok = ref true in
      let check () =
        for u = 0 to n - 1 do
          let r = Mospf.Deployment.router dep u in
          for src = 0 to n - 1 do
            List.iter
              (fun grp ->
                if Mospf.plan_for r src grp <> Mospf_reference.plan ~net r src grp then ok := false)
              [ g; g2 ]
          done
        done
      in
      for _ = 1 to steps do
        for _ = 1 to 1 + Prng.int prng 3 do
          let r = Mospf.Deployment.router dep (Prng.int prng n) in
          let grp = if Prng.bool prng then g else g2 in
          if Prng.int prng 3 = 0 then Mospf.leave_local r grp else Mospf.join_local r grp
        done;
        Engine.run ~until:(Engine.now eng +. float_of_int (Prng.int prng 4)) eng;
        check ();
        (match Prng.int prng 3 with
        | 0 ->
          let lid = Prng.int prng (Topology.n_links topo) in
          Net.set_link_up net lid (not (Net.link_up net lid))
        | 1 ->
          let u = Prng.int prng n in
          Net.set_node_up net u (not (Net.node_up net u))
        | _ -> Mospf.restart (Mospf.Deployment.router dep (Prng.int prng n)));
        check ()
      done;
      !ok)

(* The database of shared LSA records agrees with the old per-router
   table of group sets ([Mospf_reference.Lsdb]) on every (router, group)
   membership and on the entry count.  The reference hears every LSA a
   router's Net handler sees and mirrors its joins, leaves and restarts.
   Delivery is jittered, so LSAs overtake each other, and LSAs injected
   on random links carry stale and duplicate sequence numbers (0
   included), any subset of the groups, and the receiver's own origin
   (a self-echo). *)
let prop_lsdb_matches_reference =
  QCheck.Test.make ~name:"shared-record LSDB equals the table-of-sets LSDB" ~count:200
    QCheck.(pair (int_bound 100000) (int_range 1 12))
    (fun (seed, steps) ->
      let prng = Prng.create seed in
      let topo = Small_topo.random prng in
      let n = Topology.n_nodes topo in
      let eng, net, dep = mk topo in
      Net.set_jitter net ~prng:(Prng.split prng) 0.5;
      let refs = Array.init n Lsdb_reference.create in
      for u = 0 to n - 1 do
        Net.set_handler net u (fun ~iface:_ pkt ->
            match pkt.Packet.payload with
            | Mospf.Membership_lsa l -> Lsdb_reference.install refs.(u) l
            | _ -> ())
      done;
      let groups = [| g; g2; Group.of_index 3 |] in
      let ok = ref true in
      let check () =
        for u = 0 to n - 1 do
          let r = Mospf.Deployment.router dep u in
          for v = 0 to n - 1 do
            Array.iter
              (fun grp ->
                if Mospf.knows_member r v grp <> Lsdb_reference.knows_member refs.(u) v grp then
                  ok := false)
              groups
          done;
          if Mospf.membership_entries r <> Lsdb_reference.membership_entries refs.(u) then
            ok := false
        done
      in
      let inject u =
        let ifaces = Topology.ifaces topo u in
        if Array.length ifaces > 0 then begin
          let iface, _ = Prng.pick prng ifaces in
          let lsa =
            {
              Mospf.origin = Prng.int prng n;
              seq = Prng.int prng 6;
              groups = List.filter (fun _ -> Prng.bool prng) (Array.to_list groups);
            }
          in
          Net.send net u ~iface
            (Packet.unicast ~src:(Addr.router u) ~dst:Addr.all_pim_routers ~size:12
               (Mospf.Membership_lsa lsa))
        end
      in
      for _ = 1 to steps do
        for _ = 1 to 1 + Prng.int prng 4 do
          let u = Prng.int prng n in
          let r = Mospf.Deployment.router dep u in
          let grp = Prng.pick prng groups in
          match Prng.int prng 6 with
          | 0 | 1 ->
            Mospf.join_local r grp;
            Lsdb_reference.join refs.(u) grp
          | 2 ->
            Mospf.leave_local r grp;
            Lsdb_reference.leave refs.(u) grp
          | 3 ->
            Mospf.restart r;
            Lsdb_reference.restart refs.(u)
          | _ -> inject u
        done;
        Engine.run ~until:(Engine.now eng +. float_of_int (Prng.int prng 4)) eng;
        check ()
      done;
      Engine.run eng;
      check ();
      !ok)

(* Allocation per membership-LSA delivery.  Every router of a 6x6 grid
   joins three groups in turn, and the flooding that follows is drained
   with the minor-words counter running (the joins themselves, which
   originate the LSAs, are outside it).  A delivery that installs stores
   the received record and re-floods the packet it received, under its
   own address, on every other interface; a duplicate costs nothing in
   the router.  Measured at 3.69 words per delivery, Net's own cost
   included, the budget is that plus ~10% (6.3 while an install built a
   new packet, its destination and its payload, 5.75 words; 7.8 while
   the timer wheel built a closure per link and per pop).  Building a
   packet per interface (6.1 words more) or rebuilding a group set per
   install (8.1 more) breaks it, as does over-applying Net's handlers
   (15.75). *)
let test_flood_alloc_budget () =
  let eng, net, dep = mk (Classic.grid 6 6) in
  let words = ref 0. and deliveries = ref 0 in
  for k = 1 to 3 do
    for u = 0 to 35 do
      Mospf.join_local (Mospf.Deployment.router dep u) (Group.of_index k)
    done;
    let t0 = Net.total_traversals net and w0 = Gc.minor_words () in
    Engine.run eng;
    words := !words +. (Gc.minor_words () -. w0);
    deliveries := !deliveries + (Net.total_traversals net - t0)
  done;
  Alcotest.(check int) "every router knows every membership" (36 * 36 * 3)
    (Mospf.Deployment.total_membership_entries dep);
  let per = !words /. float_of_int !deliveries in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per LSA delivery <= %.1f" per 4.1)
    true (per <= 4.1)

(* The modelled cost does not move with the shared tree: each router still
   counts one SPF run per (source, group) plan it computes.  The figures
   are those of the per-router Dijkstra on this scripted run. *)
let test_spf_runs_pinned () =
  let eng, net, dep = mk (Classic.grid 3 3) in
  List.iter (fun m -> Mospf.join_local (Mospf.Deployment.router dep m) g) [ 2; 6; 8 ];
  Engine.run ~until:10. eng;
  send_n eng dep ~from:0 ~start:10. 5;
  Engine.run ~until:20. eng;
  let after_first = Counters.total (Net.counters net) Counters.Spf_runs in
  (* A link failure drops every cached plan; a new member floods an LSA,
     which drops them again. *)
  Net.set_link_up net 0 false;
  send_n eng dep ~from:0 ~start:20. 3;
  Engine.run ~until:30. eng;
  Mospf.join_local (Mospf.Deployment.router dep 4) g;
  Engine.run ~until:35. eng;
  send_n eng dep ~from:4 ~start:35. 3;
  Engine.run ~until:50. eng;
  let total = Counters.total (Net.counters net) in
  Alcotest.(check int) "spf runs after the first burst" 7 after_first;
  Alcotest.(check int) "spf runs at the end" 22 (total Counters.Spf_runs);
  Alcotest.(check int) "data forwarded" 69 (total Counters.Data_forwarded)

let () =
  Alcotest.run "pim_mospf"
    [
      ( "mospf",
        [
          Alcotest.test_case "membership floods everywhere" `Quick
            test_membership_floods_everywhere;
          Alcotest.test_case "delivery on spt" `Quick test_delivery_on_spt;
          Alcotest.test_case "spf cached" `Quick test_spf_cached;
          Alcotest.test_case "rows read the cache" `Quick test_rows_read_the_cache;
          Alcotest.test_case "refresh keeps plans" `Quick test_refresh_keeps_plans;
          Alcotest.test_case "membership change invalidates" `Quick
            test_membership_change_invalidates;
          Alcotest.test_case "leave stops delivery" `Quick test_leave_stops_delivery;
          Alcotest.test_case "link failure reroutes" `Quick test_link_failure_reroutes;
          Alcotest.test_case "groups independent" `Quick test_groups_independent;
          Alcotest.test_case "spf runs pinned" `Quick test_spf_runs_pinned;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_shared_tree_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_lsdb_matches_reference;
          Alcotest.test_case "flood allocation budget" `Quick test_flood_alloc_budget;
        ] );
    ]
