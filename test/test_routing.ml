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

(* Tests for the unicast substrates: Static, Distance_vector, Link_state,
   and the Rib interface they share. *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Addr = Pim_net.Addr
module Rib = Pim_routing.Rib
module Static = Pim_routing.Static
module Dv = Pim_routing.Distance_vector
module Ls = Pim_routing.Link_state
module Prng = Pim_util.Prng

let mk topo =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  (eng, net)

(* Rib *)

let test_rib_resolve () =
  Alcotest.(check (option int)) "router" (Some 7) (Rib.resolve (Addr.router 7));
  Alcotest.(check (option int)) "host" (Some 7) (Rib.resolve (Addr.host ~router:7 3));
  Alcotest.(check (option int)) "multicast" None (Rib.resolve (Addr.of_octets 225 0 0 1))

(* Static *)

let test_static_line () =
  let _, net = mk (Classic.line 4) in
  let s = Static.create net in
  let r0 = Static.rib s 0 in
  Alcotest.(check int) "no routes built up front" 0 (Static.dijkstras s);
  (match Rib.next_hop r0 (Addr.router 3) with
  | Some (iface, next) ->
    Alcotest.(check int) "iface" 0 iface;
    Alcotest.(check int) "next hop" 1 next
  | None -> Alcotest.fail "route expected");
  Alcotest.(check (option int)) "distance" (Some 3) (r0.Rib.distance (Addr.router 3));
  Alcotest.(check bool) "self route none" true (Rib.next_hop r0 (Addr.router 0) = None);
  Alcotest.(check (option int)) "self distance" (Some 0) (r0.Rib.distance (Addr.router 0));
  Alcotest.(check int) "one table for router 0" 1 (Static.dijkstras s);
  ignore (Rib.next_hop (Static.rib s 2) (Addr.router 0));
  Alcotest.(check int) "router 2 builds its own" 2 (Static.dijkstras s)

let test_static_host_routes () =
  let _, net = mk (Classic.line 3) in
  let s = Static.create net in
  let r0 = Static.rib s 0 in
  (match Rib.next_hop r0 (Addr.host ~router:2 1) with
  | Some (_, next) -> Alcotest.(check int) "host via its router path" 1 next
  | None -> Alcotest.fail "host route expected");
  Alcotest.(check (option int)) "rpf iface" (Some 0) (Rib.rpf_iface r0 (Addr.host ~router:2 1))

let test_static_reroute_on_failure () =
  let _, net = mk (Classic.ring 4) in
  let s = Static.create net in
  let r0 = Static.rib s 0 in
  let next_to_1 () = Option.map snd (Rib.next_hop r0 (Addr.router 1)) in
  Alcotest.(check (option int)) "direct" (Some 1) (next_to_1 ());
  let notified = ref 0 in
  r0.Rib.subscribe (fun () -> incr notified);
  (* Router 0 reaches 2 over 1, not 3 (ties go to the smaller id), so the
     2-3 link is on none of its paths either way: no rebuild, no
     notification. *)
  Net.set_link_up net 2 false;
  Net.set_link_up net 2 true;
  Alcotest.(check int) "table kept" 1 (Static.dijkstras s);
  Alcotest.(check int) "not notified" 0 !notified;
  (* Kill the 0-1 link: the ring reroutes the long way. *)
  Net.set_link_up net 0 false;
  Alcotest.(check (option int)) "detour" (Some 3) (next_to_1 ());
  Alcotest.(check (option int)) "detour distance" (Some 3) (r0.Rib.distance (Addr.router 1));
  Alcotest.(check int) "subscriber notified once" 1 !notified

let test_static_node_failure () =
  let _, net = mk (Classic.line 3) in
  let s = Static.create net in
  let r0 = Static.rib s 0 in
  Net.set_node_up net 1 false;
  Alcotest.(check bool) "unreachable through dead node" true (Rib.next_hop r0 (Addr.router 2) = None)

(* Edges the live network can use: what Static's Dijkstra runs over. *)
let live net u v lid = Net.link_up net lid && Net.node_up net u && Net.node_up net v

(* Every router's shortest-path distances over the live network
   ([max_int] = unreachable), rebuilt from scratch: the matrix the
   dynamic substrates must converge to. *)
let distance_matrix net =
  let topo = Net.topo net in
  Array.init (Topology.n_nodes topo) (fun u ->
      (Pim_graph.Spt.single_source ~usable:(live net) topo u).Pim_graph.Spt.dist)

let test_static_distance_matrix () =
  let _, net = mk (Classic.line 3) in
  let m = distance_matrix net in
  Alcotest.(check int) "0->2" 2 m.(0).(2);
  Alcotest.(check int) "2->0" 2 m.(2).(0);
  let s = Static.create net in
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun d dist ->
          Alcotest.(check (option int))
            (Printf.sprintf "%d->%d" u d)
            (Some dist)
            ((Static.rib s u).Rib.distance (Addr.router d)))
        row)
    m

let test_static_out_of_range_next_hop () =
  let _, net = mk (Classic.ring 10) in
  let r0 = Static.rib (Static.create net) 0 in
  Alcotest.(check bool) "router 99 has no route" true (Rib.next_hop r0 (Addr.router 99) = None);
  Alcotest.(check bool) "host of router 99 has no route" true
    (Rib.next_hop r0 (Addr.host ~router:99 1) = None)

let test_static_out_of_range_distance () =
  let _, net = mk (Classic.ring 10) in
  let r0 = Static.rib (Static.create net) 0 in
  Alcotest.(check (option int)) "router 99 unreachable" None (r0.Rib.distance (Addr.router 99));
  Alcotest.(check (option int)) "router 9 still reachable" (Some 1) (r0.Rib.distance (Addr.router 9))

(* A table's distance field holds [max_cost * (n - 1)] below its all-ones
   unreachable mark.  Two routers on one link leave all but 1 + 2 bits of
   a word (60 of 63), so a cost of 2^60 - 2 is the largest [create]
   accepts. *)
let test_static_distance_overflow () =
  let two cost =
    let b = Topology.builder 2 in
    ignore (Topology.add_p2p ~cost b 0 1);
    snd (mk (Topology.freeze b))
  in
  let width = Sys.int_size - 3 in
  let limit = (1 lsl width) - 2 in
  ignore (Static.create (two limit));
  Alcotest.check_raises "one past the limit"
    (Invalid_argument
       (Printf.sprintf "Static.create: distances up to %d x 1 exceed the %d-bit distance field"
          (limit + 1) width))
    (fun () -> ignore (Static.create (two (limit + 1))));
  match Static.create (two max_int) with
  | _ -> Alcotest.fail "max_int cost accepted"
  | exception Invalid_argument _ -> ()

(* The wide-area topology of the work and memory pins: a 480-router
   transit-stub, the workload harness's sizing for 500. *)
let transit_stub_480 () =
  Pim_graph.Transit_stub.generate ~transit:12 ~stubs_per_transit:3 ~stub_size:13
    ~prng:(Prng.create 500) ()

(* Words allocated by [f ()], minor and major heap together (large arrays
   go straight to the major heap). *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* A table is one word per destination: a router's first lookup on the
   480-router transit-stub allocates about n words for its tree, a bitset
   of the destinations asked about, and the answer.  Three arrays per
   tree (distance, parent, link) would be about 3n. *)
let test_static_table_memory () =
  let ts = transit_stub_480 () in
  let topo = ts.Pim_graph.Transit_stub.topo in
  let n = Topology.n_nodes topo in
  let _, net = mk topo in
  let s = Static.create net in
  let warm = Static.rib s 0 in
  ignore (Rib.next_hop warm (Addr.router (n - 1)));
  let u = List.nth (List.hd ts.Pim_graph.Transit_stub.stubs) 1 in
  let r = Static.rib s u in
  let answer, words = words_allocated (fun () -> Rib.next_hop r (Addr.router 0)) in
  Alcotest.(check bool) "a route" true (answer <> None);
  Alcotest.(check int) "one table built" 2 (Static.dijkstras s);
  let budget = (1.2 *. float_of_int n) +. 64. in
  Alcotest.(check bool)
    (Printf.sprintf "first lookup: %.0f words <= %.0f (n = %d)" words budget n)
    true (words <= budget)

(* The RIB's work on a fixed wide-area run: the 480-router transit-stub,
   nine stub routers asking about every backbone router and three stub
   routers, then a scripted sequence of link and node flaps.  Each step pins the exact count of
   trees built, so a RIB that builds eagerly, or rebuilds trees a change
   does not alter, fails here. *)
let test_static_work_pin () =
  let ts = transit_stub_480 () in
  let topo = ts.Pim_graph.Transit_stub.topo in
  let _, net = mk topo in
  let s = Static.create net in
  let stubs = Array.of_list ts.Pim_graph.Transit_stub.stubs in
  let routers = List.init 9 (fun i -> List.nth stubs.(4 * i) 1) in
  let dests = ts.Pim_graph.Transit_stub.transit @ List.map (fun i -> List.nth stubs.(i) 2) [ 1; 17; 30 ] in
  let notified = ref 0 in
  List.iter (fun u -> (Static.rib s u).Rib.subscribe (fun () -> incr notified)) routers;
  let ask () =
    List.iter
      (fun u ->
        let r = Static.rib s u in
        List.iter (fun d -> ignore (Rib.next_hop r (Addr.router d))) dests)
      routers
  in
  let link_between u v =
    let lids = Array.to_list (Array.map snd (Topology.ifaces topo u)) in
    List.find (fun lid -> Array.mem v (Topology.link topo lid).Topology.ends) lids
  in
  let ring = link_between 0 1 and chord = link_between 37 30 in
  let access = link_between (List.hd stubs.(8)) (8 / 3) in
  let stub_link = link_between (List.nth stubs.(8) 1) (List.hd stubs.(8)) in
  let stub_router = List.nth stubs.(20) 5 in
  (* Step, then the trees built and the notifications sent so far. *)
  let steps =
    [
      ("lookups", ask, 9, 0);
      ("lookups again", ask, 9, 0);
      ("idle chord down", (fun () -> Net.set_link_up net chord false), 9, 0);
      ("idle chord up", (fun () -> Net.set_link_up net chord true), 9, 0);
      ("ring link down", (fun () -> Net.set_link_up net ring false), 12, 3);
      ("ring link up", (fun () -> Net.set_link_up net ring true), 15, 6);
      ("access link down", (fun () -> Net.set_link_up net access false), 24, 7);
      ("access link up", (fun () -> Net.set_link_up net access true), 33, 8);
      ("stub link down", (fun () -> Net.set_link_up net stub_link false), 42, 9);
      ("stub link up", (fun () -> Net.set_link_up net stub_link true), 51, 10);
      ("transit router down", (fun () -> Net.set_node_up net 6 false), 60, 19);
      ("transit router up", (fun () -> Net.set_node_up net 6 true), 69, 28);
      ("stub router down", (fun () -> Net.set_node_up net stub_router false), 78, 28);
      ("stub router up", (fun () -> Net.set_node_up net stub_router true), 87, 28);
      ("refresh", (fun () -> Static.refresh s), 96, 28);
    ]
  in
  List.iter
    (fun (name, step, dijkstras, notifications) ->
      step ();
      Alcotest.(check int) (name ^ ": trees built") dijkstras (Static.dijkstras s);
      Alcotest.(check int) (name ^ ": notifications") notifications !notified)
    steps

(* The reference Static is measured against: every router's tree rebuilt
   from scratch over the live network, as the all-pairs implementation
   did on creation and on every link change. *)
let all_pairs_answers net =
  let topo = Net.topo net in
  Array.init (Topology.n_nodes topo) (fun u ->
      let tree = Pim_graph.Spt.single_source ~usable:(live net) topo u in
      let hop, hop_iface = Pim_graph.Spt.first_hop topo tree in
      fun d ->
        let next = if hop.(d) < 0 then None else Some (hop_iface.(d), hop.(d)) in
        let dist = tree.Pim_graph.Spt.dist.(d) in
        (next, if dist = max_int then None else Some dist))

let prop_static_matches_all_pairs =
  QCheck.Test.make
    ~name:"Static answers like all-pairs and notifies exactly the routers whose answers changed"
    ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 1 15))
    (fun (seed, steps) ->
      let prng = Prng.create seed in
      let topo = Small_topo.random prng in
      let n = Topology.n_nodes topo in
      let _, net = mk topo in
      let s = Static.create net in
      let ribs = Array.init n (Static.rib s) in
      let notified = Array.make n 0 in
      Array.iteri (fun u r -> r.Rib.subscribe (fun () -> notified.(u) <- notified.(u) + 1)) ribs;
      (* A second instance nobody subscribes to drops stale tables instead
         of rebuilding them. *)
      let unwatched = Static.create net in
      let answer_of rib d = (Rib.next_hop rib (Addr.router d), rib.Rib.distance (Addr.router d)) in
      let answer u d = answer_of ribs.(u) d in
      let asked = ref [] in
      let ok = ref true in
      for _ = 1 to steps do
        let expected = all_pairs_answers net in
        for _ = 1 to 1 + Prng.int prng 4 do
          let u = Prng.int prng n and d = Prng.int prng n in
          asked := (u, d) :: !asked;
          if answer u d <> expected.(u) d then ok := false;
          if answer_of (Static.rib unwatched u) d <> expected.(u) d then ok := false
        done;
        Array.fill notified 0 n 0;
        (if Prng.bool prng then
           let lid = Prng.int prng (Topology.n_links topo) in
           Net.set_link_up net lid (not (Net.link_up net lid))
         else
           let u = Prng.int prng n in
           Net.set_node_up net u (not (Net.node_up net u)));
        let now = all_pairs_answers net in
        for u = 0 to n - 1 do
          let changed = List.exists (fun (v, d) -> v = u && now.(u) d <> expected.(u) d) !asked in
          if notified.(u) <> Bool.to_int changed then ok := false
        done
      done;
      let expected = all_pairs_answers net in
      for u = 0 to n - 1 do
        for d = 0 to n - 1 do
          if answer u d <> expected.(u) d then ok := false
        done
      done;
      !ok)

(* Distance vector *)

let fast_dv = { Dv.default_config with Dv.period = 5.; timeout = 30.; triggered_delay = 0.2 }

let test_dv_converges_line () =
  let eng, net = mk (Classic.line 4) in
  let dv = Dv.create ~config:fast_dv net in
  Engine.run ~until:30. eng;
  let expected = distance_matrix net in
  Alcotest.(check bool) "converged to shortest paths" true (Dv.converged dv ~against:expected);
  Alcotest.(check (option int)) "metric" (Some 3) (Dv.metric dv 0 3)

let test_dv_converges_random () =
  List.iter
    (fun seed ->
      let prng = Prng.create seed in
      let topo = Pim_graph.Random_graph.generate ~prng ~nodes:20 ~degree:3. () in
      let eng, net = (Engine.create (), ()) |> fun (e, ()) -> (e, Net.create e topo) in
      let dv = Dv.create ~config:fast_dv net in
      Engine.run ~until:60. eng;
      let expected = distance_matrix net in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d converged" seed)
        true (Dv.converged dv ~against:expected))
    [ 1; 2; 3 ]

let test_dv_rib () =
  let eng, net = mk (Classic.line 3) in
  let dv = Dv.create ~config:fast_dv net in
  Engine.run ~until:20. eng;
  let r0 = Dv.rib dv 0 in
  (match Rib.next_hop r0 (Addr.router 2) with
  | Some (_, next) -> Alcotest.(check int) "next hop" 1 next
  | None -> Alcotest.fail "route expected");
  Alcotest.(check (option int)) "host distance" (Some 2) (r0.Rib.distance (Addr.host ~router:2 1))

let test_dv_reconverges_after_failure () =
  let eng, net = mk (Classic.ring 5) in
  let dv = Dv.create ~config:fast_dv net in
  Engine.run ~until:40. eng;
  (* Fail the 0-1 link; distances must re-converge to the detour. *)
  Net.set_link_up net 0 false;
  Engine.run ~until:120. eng;
  Alcotest.(check (option int)) "detour metric" (Some 4) (Dv.metric dv 0 1)

let test_dv_messages_counted () =
  let eng, net = mk (Classic.line 3) in
  let dv = Dv.create ~config:fast_dv net in
  Engine.run ~until:20. eng;
  Alcotest.(check bool) "advertisements happened" true (Dv.message_count dv > 0)

(* Link state *)

let fast_ls = { Ls.refresh_period = 30.; spf_delay = 0.2 }

let test_ls_converges_line () =
  let eng, net = mk (Classic.line 4) in
  let ls = Ls.create ~config:fast_ls net in
  Engine.run ~until:20. eng;
  let expected = distance_matrix net in
  Alcotest.(check bool) "converged" true (Ls.converged ls ~against:expected);
  Alcotest.(check (option int)) "distance" (Some 3) (Ls.distance ls 0 3)

let test_ls_converges_random () =
  List.iter
    (fun seed ->
      let prng = Prng.create seed in
      let topo = Pim_graph.Random_graph.generate ~prng ~nodes:20 ~degree:3. () in
      let eng = Engine.create () in
      let net = Net.create eng topo in
      let ls = Ls.create ~config:fast_ls net in
      Engine.run ~until:30. eng;
      let expected = distance_matrix net in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d converged" seed)
        true (Ls.converged ls ~against:expected))
    [ 4; 5; 6 ]

let test_ls_rib_and_counters () =
  let eng, net = mk (Classic.ring 4) in
  let ls = Ls.create ~config:fast_ls net in
  Engine.run ~until:20. eng;
  let r0 = Ls.rib ls 0 in
  (match Rib.next_hop r0 (Addr.router 1) with
  | Some (_, next) -> Alcotest.(check int) "direct" 1 next
  | None -> Alcotest.fail "route expected");
  Alcotest.(check bool) "lsas flooded" true (Ls.lsa_count ls > 0);
  Alcotest.(check bool) "spf ran" true (Ls.spf_runs ls > 0)

let test_ls_reconverges_after_link_failure () =
  let eng, net = mk (Classic.ring 4) in
  let ls = Ls.create ~config:fast_ls net in
  Engine.run ~until:20. eng;
  Net.set_link_up net 0 false;
  Engine.run ~until:40. eng;
  Alcotest.(check (option int)) "detour" (Some 3) (Ls.distance ls 0 1)

let test_ls_crashed_node_disappears () =
  let eng, net = mk (Classic.line 3) in
  let ls = Ls.create ~config:fast_ls net in
  Engine.run ~until:20. eng;
  (* Node 1 crashes without re-originating; the bidirectionality check at
     its neighbors removes it anyway. *)
  Net.set_node_up net 1 false;
  Engine.run ~until:40. eng;
  Alcotest.(check (option int)) "unreachable" None (Ls.distance ls 0 2)

(* Property: after arbitrary (non-disconnecting) link failures, both
   dynamic substrates re-converge to the oracle's shortest paths. *)
let prop_substrates_converge_after_failures =
  QCheck.Test.make ~name:"DV and LS re-converge after random link failures" ~count:8
    QCheck.(pair (int_range 0 10000) (int_range 1 3))
    (fun (seed, kills) ->
      let prng = Prng.create seed in
      let topo = Pim_graph.Random_graph.generate ~prng ~nodes:15 ~degree:4. () in
      let check make converge_time =
        let eng = Engine.create () in
        let net = Net.create eng topo in
        let sub_converged = make net in
        Engine.run ~until:60. eng;
        (* Kill up to [kills] links, skipping any that would disconnect. *)
        let killed = ref 0 in
        let n_links = Topology.n_links topo in
        let tries = ref 0 in
        while !killed < kills && !tries < 20 do
          incr tries;
          let lid = Prng.int prng n_links in
          if Net.link_up net lid then begin
            Net.set_link_up net lid false;
            let m = distance_matrix net in
            if Array.exists (fun row -> Array.exists (fun d -> d = max_int) row) m then
              Net.set_link_up net lid true (* would disconnect: revert *)
            else incr killed
          end
        done;
        Engine.run ~until:(60. +. converge_time) eng;
        let expected = distance_matrix net in
        sub_converged ~against:expected
      in
      check
        (fun net ->
          let dv = Dv.create ~config:fast_dv net in
          fun ~against -> Dv.converged dv ~against)
        120.
      && check
           (fun net ->
             let ls = Ls.create ~config:fast_ls net in
             fun ~against -> Ls.converged ls ~against)
           30.)

let () =
  Alcotest.run "pim_routing"
    [
      ("rib", [ Alcotest.test_case "resolve" `Quick test_rib_resolve ]);
      ( "static",
        [
          Alcotest.test_case "line" `Quick test_static_line;
          Alcotest.test_case "host routes" `Quick test_static_host_routes;
          Alcotest.test_case "reroute on failure" `Quick test_static_reroute_on_failure;
          Alcotest.test_case "node failure" `Quick test_static_node_failure;
          Alcotest.test_case "work pin" `Quick test_static_work_pin;
          Alcotest.test_case "distance matrix" `Quick test_static_distance_matrix;
          Alcotest.test_case "out-of-range next hop" `Quick test_static_out_of_range_next_hop;
          Alcotest.test_case "out-of-range distance" `Quick test_static_out_of_range_distance;
          Alcotest.test_case "distance overflow" `Quick test_static_distance_overflow;
          Alcotest.test_case "table memory" `Quick test_static_table_memory;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_static_matches_all_pairs;
        ] );
      ( "distance-vector",
        [
          Alcotest.test_case "converges on line" `Quick test_dv_converges_line;
          Alcotest.test_case "converges on random graphs" `Slow test_dv_converges_random;
          Alcotest.test_case "rib view" `Quick test_dv_rib;
          Alcotest.test_case "reconverges after failure" `Quick test_dv_reconverges_after_failure;
          Alcotest.test_case "message counting" `Quick test_dv_messages_counted;
        ] );
      ( "link-state",
        [
          Alcotest.test_case "converges on line" `Quick test_ls_converges_line;
          Alcotest.test_case "converges on random graphs" `Slow test_ls_converges_random;
          Alcotest.test_case "rib and counters" `Quick test_ls_rib_and_counters;
          Alcotest.test_case "reconverges after link failure" `Quick
            test_ls_reconverges_after_link_failure;
          Alcotest.test_case "crashed node disappears" `Quick test_ls_crashed_node_disappears;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_substrates_converge_after_failures ]);
    ]
