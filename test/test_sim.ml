(* Tests for Pim_sim: event engine, network delivery, trace. *)

(* Pin the qcheck exploration seed so [dune runtest] draws the same
   property cases on every run; export QCHECK_SEED to explore another
   slice of the input space. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 1994)
    | None -> 1994
  in
  Random.State.make [| seed |]

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Topology = Pim_graph.Topology
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr

(* Engine *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~after:3. (fun () -> log := 3 :: !log));
  ignore (Engine.schedule eng ~after:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule eng ~after:2. (fun () -> log := 2 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3. (Engine.now eng)

let test_engine_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~after:1. (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "schedule order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~after:1. (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule eng ~after:1. (fun () -> log := "b" :: !log))));
  Engine.run eng;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time" 2. (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~after:1. (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule eng ~after:1. (fun () -> incr fired));
  ignore (Engine.schedule eng ~after:5. (fun () -> incr fired));
  Engine.run ~until:3. eng;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock set to until" 3. (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_every () =
  let eng = Engine.create () in
  let count = ref 0 in
  let h = Engine.every eng ~interval:1. (fun () -> incr count) in
  Engine.run ~until:5.5 eng;
  Alcotest.(check int) "five ticks" 5 !count;
  Engine.cancel h;
  Engine.run ~until:10. eng;
  Alcotest.(check int) "stopped" 5 !count

let test_engine_every_start () =
  let eng = Engine.create () in
  let times = ref [] in
  let h = Engine.every eng ~start:0.5 ~interval:2. (fun () -> times := Engine.now eng :: !times) in
  Engine.run ~until:5. eng;
  Engine.cancel h;
  Alcotest.(check (list (float 1e-9))) "start then interval" [ 0.5; 2.5; 4.5 ] (List.rev !times)

let test_engine_every_self_cancel () =
  let eng = Engine.create () in
  let count = ref 0 in
  let h = ref None in
  h :=
    Some
      (Engine.every eng ~interval:1. (fun () ->
           incr count;
           if !count = 3 then Option.iter Engine.cancel !h));
  Engine.run ~until:10. eng;
  Alcotest.(check int) "self cancel" 3 !count

let test_engine_every_cancel_other () =
  (* One periodic timer cancels another from inside its own tick — the
     restart machinery does exactly this when it tears down a router's
     timers while the engine is mid-dispatch. *)
  let eng = Engine.create () in
  let a_count = ref 0 and b_count = ref 0 in
  let b = Engine.every eng ~start:1.5 ~interval:1. (fun () -> incr b_count) in
  ignore
    (Engine.every eng ~interval:1. (fun () ->
         incr a_count;
         if !a_count = 2 then Engine.cancel b));
  Engine.run ~until:6.4 eng;
  Alcotest.(check int) "canceller keeps running" 6 !a_count;
  Alcotest.(check int) "cancelled timer stopped mid-run" 1 !b_count

(* Cancellation must physically remove the event, not tombstone it: a
   soft-state protocol arms and cancels timers constantly, and ghost
   entries would both inflate [pending] and hold their closures live
   until the (never-reached) fire time. *)
let test_engine_cancel_no_ghosts () =
  let eng = Engine.create () in
  let n = 100_000 in
  let fired = ref 0 in
  let before = Gc.((quick_stat ()).heap_words) in
  for round = 1 to 5 do
    let handles =
      List.init n (fun i ->
          Engine.schedule eng ~after:(float_of_int (1 + (i mod 977))) (fun () -> incr fired))
    in
    Alcotest.(check int) "all pending" n (Engine.pending eng);
    List.iter Engine.cancel handles;
    Alcotest.(check int)
      (Printf.sprintf "round %d: no ghost timers" round)
      0 (Engine.pending eng)
  done;
  Engine.run eng;
  Alcotest.(check int) "nothing fires" 0 !fired;
  Alcotest.(check (float 1e-9)) "clock never advanced" 0. (Engine.now eng);
  (* 5 rounds of 1e5 armed-then-cancelled timers must not accumulate:
     the heap can grow transiently, but not by 5 rounds' worth. *)
  Gc.compact ();
  let after = Gc.((quick_stat ()).heap_words) in
  Alcotest.(check bool) "memory bounded" true (after - before < 4 * n * 10)

let test_engine_cancel_inside_tick () =
  (* Two one-shot timers at the same instant: the first cancels the
     second mid-dispatch, so the second must not fire even though it was
     already due. *)
  let eng = Engine.create () in
  let b_fired = ref false in
  let b = ref None in
  ignore (Engine.schedule eng ~after:1. (fun () -> Option.iter Engine.cancel !b));
  b := Some (Engine.schedule eng ~after:1. (fun () -> b_fired := true));
  Engine.run eng;
  Alcotest.(check bool) "cancelled mid-tick" false !b_fired;
  Alcotest.(check (float 1e-9)) "clock reached the tick" 1. (Engine.now eng)

let test_engine_every_start_zero () =
  let eng = Engine.create () in
  let times = ref [] in
  let h = Engine.every eng ~start:0. ~interval:2. (fun () -> times := Engine.now eng :: !times) in
  Engine.run ~until:5. eng;
  Engine.cancel h;
  Alcotest.(check (list (float 1e-9))) "fires at t=0 then every interval" [ 0.; 2.; 4. ]
    (List.rev !times)

let test_engine_fifo_across_reschedules () =
  (* Same-timestamp events must run in schedule order even when earlier
     activity forced the timer wheel to resize and re-bucket. *)
  let eng = Engine.create () in
  let spread =
    List.init 600 (fun i -> Engine.schedule eng ~after:(0.001 *. float_of_int (i + 1)) (fun () -> ()))
  in
  let log = ref [] in
  for i = 0 to 199 do
    ignore (Engine.schedule eng ~after:50. (fun () -> log := i :: !log))
  done;
  List.iteri (fun i h -> if i mod 2 = 0 then Engine.cancel h) spread;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at one timestamp" (List.init 200 Fun.id) (List.rev !log)

(* [rearm_at] reuses one handle: from inside its own callback, and after
   it fired.  A re-armed event takes a fresh sequence number, so it runs
   after events already scheduled for the same instant. *)
let test_engine_rearm () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := (Engine.now eng, s) :: !log in
  let ticks = ref 0 in
  let hdl = ref None in
  let h =
    Engine.schedule_at eng 1. (fun () ->
        incr ticks;
        note "h";
        if !ticks < 3 then Option.iter (fun h -> Engine.rearm_at eng h (Engine.now eng +. 1.)) !hdl)
  in
  hdl := Some h;
  ignore (Engine.schedule_at eng 2. (fun () -> note "other"));
  Alcotest.check_raises "queued handle" (Invalid_argument "Timer_wheel.readd: node is linked")
    (fun () -> Engine.rearm_at eng h 5.);
  Engine.run eng;
  Alcotest.(check (list (pair (float 0.) string)))
    "fires in place, after same-instant events"
    [ (1., "h"); (2., "other"); (2., "h"); (3., "h") ]
    (List.rev !log);
  Engine.rearm_at eng h 7.;
  Alcotest.check_raises "past" (Invalid_argument "Engine.rearm_at: time in the past") (fun () ->
      Engine.rearm_at eng (Engine.schedule_at eng 4. ignore) 1.);
  Engine.run eng;
  Alcotest.(check int) "re-armed after firing" 4 !ticks

let test_engine_run_until_advances_clock () =
  let eng = Engine.create () in
  Engine.run ~until:7. eng;
  Alcotest.(check (float 1e-9)) "empty queue still advances" 7. (Engine.now eng);
  ignore (Engine.schedule eng ~after:1. (fun () -> ()));
  Engine.run ~until:8. eng;
  Alcotest.(check (float 1e-9)) "due event then clock at limit" 8. (Engine.now eng);
  let fired = ref false in
  ignore (Engine.schedule eng ~after:2. (fun () -> fired := true));
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "event exactly at limit fires" true !fired

(* Differential property: the timer wheel must execute any random
   schedule-and-cancel workload in exactly the order the old binary-heap
   queue did (time, then schedule order; cancelled events silent). *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"timer wheel executes like the reference heap" ~count:80
    QCheck.(pair (int_range 0 100000) (int_range 1 400))
    (fun (seed, ops) ->
      let module Tw = Pim_util.Timer_wheel in
      let prng = Pim_util.Prng.create seed in
      (* Reference: (time, seq, id, cancelled ref) in a heap, tombstone
         cancellation — the pre-wheel engine's design. *)
      let cmp (t1, s1, _, _) (t2, s2, _, _) =
        match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
      in
      let heap = Heap.create ~cmp in
      let wheel = Tw.create () in
      let live = ref [] in
      (* id -> (wheel node, cancelled flag) *)
      let seq = ref 0 in
      for id = 0 to ops - 1 do
        match Pim_util.Prng.int prng 4 with
        | 0 | 1 | 2 ->
          let time = Pim_util.Prng.float prng 1000. in
          let s = !seq in
          incr seq;
          let cancelled = ref false in
          Heap.push heap (time, s, id, cancelled);
          let node = Tw.add wheel ~time ~seq:s id in
          live := (node, cancelled) :: !live
        | _ -> (
          match !live with
          | [] -> ()
          | l ->
            let k = Pim_util.Prng.int prng (List.length l) in
            let node, cancelled = List.nth l k in
            cancelled := true;
            Tw.cancel node;
            live := List.filteri (fun i _ -> i <> k) l)
      done;
      let heap_order =
        Heap.to_sorted_list heap
        |> List.filter_map (fun (_, _, id, cancelled) -> if !cancelled then None else Some id)
      in
      let wheel_order = ref [] in
      let rec drain () =
        match Tw.pop wheel with
        | None -> ()
        | Some n ->
          wheel_order := Tw.value n :: !wheel_order;
          drain ()
      in
      drain ();
      List.rev !wheel_order = heap_order)

let test_engine_rejects_negative () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule eng ~after:(-1.) (fun () -> ())));
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () ->
      ignore (Engine.schedule eng ~after:0. (fun () -> ()));
      Engine.run eng;
      ignore (Engine.schedule_at eng (-5.) (fun () -> ())))

(* Net *)

let raw = Packet.Raw "payload"

let mk_line () =
  let topo = Pim_graph.Classic.line 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  (eng, net)

let test_net_p2p_delivery () =
  let eng, net = mk_line () in
  let got = ref [] in
  Net.set_handler net 1 (fun ~iface pkt -> got := (iface, pkt.Packet.src) :: !got);
  let pkt = Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:10 raw in
  Net.send net 0 ~iface:0 pkt;
  Engine.run eng;
  (match !got with
  | [ (iface, src) ] ->
    Alcotest.(check int) "arrives on iface 0" 0 iface;
    Alcotest.(check bool) "src" true (Addr.equal src (Addr.router 0))
  | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check (float 1e-9)) "propagation delay" 1. (Engine.now eng)

let test_net_no_echo_to_sender () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 0 (fun ~iface:_ _ -> incr got);
  Net.set_handler net 1 (fun ~iface:_ _ -> ());
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "sender does not hear itself" 0 !got

let mk_lan () =
  let b = Topology.builder 3 in
  let lan = Topology.add_lan b [ 0; 1; 2 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  (eng, Net.create eng topo, lan)

let test_net_lan_broadcast () =
  let eng, net, _ = mk_lan () in
  let got = Array.make 3 0 in
  for u = 0 to 2 do
    Net.set_handler net u (fun ~iface:_ _ -> got.(u) <- got.(u) + 1)
  done;
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:Addr.all_pim_routers ~size:1 raw);
  Engine.run eng;
  Alcotest.(check (array int)) "all others hear once" [| 0; 1; 1 |] got

let test_net_lan_targeted () =
  let eng, net, _ = mk_lan () in
  let got = Array.make 3 0 in
  for u = 0 to 2 do
    Net.set_handler net u (fun ~iface:_ _ -> got.(u) <- got.(u) + 1)
  done;
  Net.send net 0 ~iface:0 ~to_node:2
    (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 2) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check (array int)) "only target" [| 0; 0; 1 |] got

let test_net_link_down () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.set_link_up net 0 false;
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "dropped on down link" 0 !got;
  Net.set_link_up net 0 true;
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "delivered after repair" 1 !got

let test_net_link_down_in_flight () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  (* The link dies while the packet is on the wire. *)
  ignore (Engine.schedule eng ~after:0.5 (fun () -> Net.set_link_up net 0 false));
  Engine.run eng;
  Alcotest.(check int) "in-flight packet lost" 0 !got

let test_net_node_down () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.set_node_up net 1 false;
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "down node receives nothing" 0 !got;
  Net.set_node_up net 0 false;
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "down node sends nothing" 0 !got

let test_net_node_down_in_flight () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  (* The receiver dies while the packet is on the wire. *)
  ignore (Engine.schedule eng ~after:0.5 (fun () -> Net.set_node_up net 1 false));
  Engine.run eng;
  Alcotest.(check int) "in-flight packet misses dead node" 0 !got

let test_net_node_down_up_cycle () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  let send () =
    Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw)
  in
  Net.set_node_up net 1 false;
  send ();
  Engine.run eng;
  Alcotest.(check int) "nothing while down" 0 !got;
  Net.set_node_up net 1 true;
  send ();
  Engine.run eng;
  (* The handler installed before the outage still serves the revived
     node — restart wipes protocol state, not the wiring. *)
  Alcotest.(check int) "handler survives the down/up cycle" 1 !got

let test_net_host_with_dead_router () =
  let b = Topology.builder 2 in
  ignore (Topology.add_p2p b 0 1);
  let stub = Topology.add_lan b [ 0 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let host_got = ref 0 and router_got = ref 0 in
  let h = Net.attach_host net stub ~addr:(Addr.host ~router:0 1) (fun _ -> incr host_got) in
  Net.set_handler net 0 (fun ~iface:_ _ -> incr router_got);
  Net.set_node_up net 0 false;
  (* Host transmissions on the stub LAN go nowhere useful while its only
     router is dead... *)
  Net.host_send net h
    (Packet.unicast ~src:(Addr.host ~router:0 1) ~dst:Addr.all_pim_routers ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "dead router hears nothing" 0 !router_got;
  (* ...and service resumes when it comes back. *)
  Net.set_node_up net 0 true;
  Net.host_send net h
    (Packet.unicast ~src:(Addr.host ~router:0 1) ~dst:Addr.all_pim_routers ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "revived router hears the host" 1 !router_got

let test_net_offered_accounting () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.set_loss_rate net ~prng:(Pim_util.Prng.create 9) 0.4;
  for _ = 1 to 100 do
    Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw)
  done;
  Engine.run eng;
  Alcotest.(check int) "every attempt offered" 100 (Net.offered net);
  Alcotest.(check int) "offered = delivered + dropped" (Net.offered net)
    (Net.total_traversals net + Net.dropped net);
  Alcotest.(check int) "deliveries observed" !got (Net.total_traversals net);
  (* A frame that dies in flight is offered but never traverses. *)
  Net.set_loss_rate net 0.;
  let offered0 = Net.offered net and traversed0 = Net.total_traversals net in
  Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw);
  ignore (Engine.schedule eng ~after:0.5 (fun () -> Net.set_link_up net 0 false));
  Engine.run eng;
  Alcotest.(check int) "in-flight frame offered" (offered0 + 1) (Net.offered net);
  Alcotest.(check int) "but not traversed" traversed0 (Net.total_traversals net)

let test_net_jitter_reorder () =
  let eng, net = mk_line () in
  let order = ref [] in
  Net.set_handler net 1 (fun ~iface:_ pkt ->
      match pkt.Packet.payload with Packet.Raw s -> order := s :: !order | _ -> ());
  Net.set_jitter net ~prng:(Pim_util.Prng.create 5) 3.;
  Alcotest.(check (float 1e-9)) "amplitude readable" 3. (Net.jitter net);
  List.iter
    (fun s ->
      Net.send net 0 ~iface:0
        (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 (Packet.Raw s)))
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  Engine.run eng;
  let arrived = List.rev !order in
  Alcotest.(check int) "all delivered" 6 (List.length arrived);
  Alcotest.(check (list string))
    "same frames" [ "a"; "b"; "c"; "d"; "e"; "f" ]
    (List.sort String.compare arrived);
  Alcotest.(check bool) "delivery order genuinely inverted somewhere" true
    (arrived <> [ "a"; "b"; "c"; "d"; "e"; "f" ]);
  (* Jitter off: FIFO again. *)
  Net.set_jitter net 0.;
  order := [];
  List.iter
    (fun s ->
      Net.send net 0 ~iface:0
        (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 (Packet.Raw s)))
    [ "x"; "y"; "z" ];
  Engine.run eng;
  Alcotest.(check (list string)) "order restored without jitter" [ "x"; "y"; "z" ]
    (List.rev !order);
  Alcotest.check_raises "amplitude validated"
    (Invalid_argument "Net.set_jitter: amplitude must be >= 0") (fun () ->
      Net.set_jitter net (-1.))

let test_net_link_change_notify () =
  let _, net = mk_line () in
  let events = ref [] in
  Net.on_link_change net (fun lid up -> events := (lid, up) :: !events);
  Net.set_link_up net 1 false;
  Net.set_link_up net 1 false;
  (* idempotent: no second event *)
  Net.set_link_up net 1 true;
  Alcotest.(check (list (pair int bool))) "events" [ (1, false); (1, true) ] (List.rev !events)

let test_net_node_change_notifies_links () =
  let _, net = mk_line () in
  let events = ref [] in
  let changes = ref [] in
  Net.on_change net (fun lids -> changes := (lids, List.length !events) :: !changes);
  Net.on_link_change net (fun lid up -> events := (lid, up) :: !events);
  Net.set_node_up net 1 false;
  (* node 1 is on both links of the line *)
  Alcotest.(check int) "both links flap" 2 (List.length !events);
  Alcotest.(check (list (pair (list int) int)))
    "one change naming both links, before the per-link events" [ ([ 0; 1 ], 0) ] !changes

let test_net_hosts () =
  let b = Topology.builder 2 in
  ignore (Topology.add_p2p b 0 1);
  let stub = Topology.add_lan b [ 0 ] in
  let topo = Topology.freeze b in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let host_got = ref 0 and router_got = ref 0 in
  let h1 = Net.attach_host net stub ~addr:(Addr.host ~router:0 1) (fun _ -> incr host_got) in
  let _h2 = Net.attach_host net stub ~addr:(Addr.host ~router:0 2) (fun _ -> incr host_got) in
  Net.set_handler net 0 (fun ~iface:_ _ -> incr router_got);
  (* Host broadcast reaches the router and the other host, not itself. *)
  Net.host_send net h1
    (Packet.unicast ~src:(Addr.host ~router:0 1) ~dst:Addr.all_pim_routers ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "router heard" 1 !router_got;
  Alcotest.(check int) "other host heard, sender not" 1 !host_got;
  (* Router broadcast on the stub reaches both hosts. *)
  Net.send net 0 ~iface:(Topology.iface_of_link topo 0 stub)
    (Packet.unicast ~src:(Addr.router 0) ~dst:Addr.all_pim_routers ~size:1 raw);
  Engine.run eng;
  Alcotest.(check int) "both hosts heard" 3 !host_got

let test_net_traversals () =
  let eng, net = mk_line () in
  Net.set_handler net 1 (fun ~iface:_ _ -> ());
  let observed = ref 0 in
  Net.on_deliver net (fun _ _ -> incr observed);
  for _ = 1 to 4 do
    Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw)
  done;
  Engine.run eng;
  Alcotest.(check int) "per-link count" 4 (Net.traversals net 0);
  Alcotest.(check int) "other link untouched" 0 (Net.traversals net 1);
  Alcotest.(check int) "total" 4 (Net.total_traversals net);
  Alcotest.(check int) "observer" 4 !observed

(* Handing a frame to a router's handlers allocates nothing: a handler
   fetched from the router's [Vec] is bound before it is applied.  Every
   router of a 3x3 grid gets two no-op handlers; each round, every router
   sends one shared frame on each interface (outside the measurement) and
   the network drains with the minor-words counter running.  What is left
   per delivered frame is the link layer's own cost, 3.4 words; the
   budget is that plus ~10%.
   Applying [Vec.get hs i ~iface pkt] directly builds a partial closure
   per handler call, 10 words each: 23.4 words a frame. *)
let test_net_dispatch_alloc () =
  let eng = Engine.create () in
  let topo = Pim_graph.Classic.grid 3 3 in
  let net = Net.create eng topo in
  let n = Topology.n_nodes topo in
  for u = 0 to n - 1 do
    Net.set_handler net u (fun ~iface:_ _ -> ());
    Net.set_handler net u (fun ~iface:_ _ -> ())
  done;
  let pkt = Packet.unicast ~src:(Addr.router 0) ~dst:Addr.all_pim_routers ~size:1 raw in
  let words = ref 0. and frames = ref 0 in
  for _ = 1 to 50 do
    for u = 0 to n - 1 do
      Array.iter (fun (iface, _) -> Net.send net u ~iface pkt) (Topology.ifaces topo u)
    done;
    let t0 = Net.total_traversals net and w0 = Gc.minor_words () in
    Engine.run eng;
    words := !words +. (Gc.minor_words () -. w0);
    frames := !frames + (Net.total_traversals net - t0)
  done;
  Alcotest.(check int) "every frame delivered" (50 * 2 * Topology.n_links topo) !frames;
  let per = !words /. float_of_int !frames in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per delivered frame <= 3.8" per)
    true (per <= 3.8)

(* Counters keep one slot per (node, kind): every kind counts apart at
   every node, totals sum the nodes, and a node outside the table is
   rejected rather than counted into another kind's slot. *)
let test_counters_slots () =
  let module C = Pim_sim.Counters in
  let c = C.create ~nodes:3 in
  List.iteri
    (fun i k ->
      C.add c ~node:(i mod 3) k (i + 1);
      C.incr c ~node:((i + 1) mod 3) k)
    C.all;
  List.iteri
    (fun i k ->
      Alcotest.(check int) (C.name k ^ " added") (i + 1) (C.get c ~node:(i mod 3) k);
      Alcotest.(check int) (C.name k ^ " incremented") 1 (C.get c ~node:((i + 1) mod 3) k);
      Alcotest.(check int) (C.name k ^ " untouched") 0 (C.get c ~node:((i + 2) mod 3) k);
      Alcotest.(check int) (C.name k ^ " total") (i + 2) (C.total c k))
    C.all;
  Alcotest.(check int) "26 kinds, distinct names" 26
    (List.length (List.sort_uniq String.compare (List.map C.name C.all)));
  Alcotest.(check string) "snake-case name" "jp_msgs_sent" (C.name C.Jp_msgs_sent);
  List.iter
    (fun node ->
      Alcotest.check_raises (Printf.sprintf "node %d rejected" node)
        (Invalid_argument "index out of bounds") (fun () -> C.incr c ~node C.Mapping_changes))
    [ -1; 3 ]

(* Counting is on every router's per-packet path and allocates nothing:
   [incr] and [add] take labelled, never optional, arguments (an optional
   [?by] would box), and the table is one flat int array. *)
let test_counters_alloc () =
  let module C = Pim_sim.Counters in
  let c = C.create ~nodes:9 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let count () =
    for i = 0 to 9_999 do
      C.incr c ~node:(i mod 9) C.Data_forwarded;
      C.add c ~node:(i mod 9) C.Joins_sent 3
    done
  in
  let extra = words count -. words ignore in
  Alcotest.(check int) "every count landed" 10_000 (C.total c C.Data_forwarded);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10000 incr and add = 0" extra)
    true (extra = 0.)

let test_net_loss () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  Net.set_loss_rate net ~prng:(Pim_util.Prng.create 3) 0.5;
  for _ = 1 to 200 do
    Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw)
  done;
  Engine.run eng;
  Alcotest.(check int) "accounted" 200 (!got + Net.dropped net);
  Alcotest.(check bool)
    (Printf.sprintf "roughly half dropped (%d)" (Net.dropped net))
    true
    (Net.dropped net > 60 && Net.dropped net < 140);
  Alcotest.check_raises "rate validated" (Invalid_argument "Net.set_loss_rate: rate must be in [0, 1)")
    (fun () -> Net.set_loss_rate net 1.0)

let test_net_loss_filter () =
  let eng, net = mk_line () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~iface:_ _ -> incr got);
  (* Filter matches nothing: lossless despite rate 0.9. *)
  Net.set_loss_rate net ~filter:(fun _ -> false) 0.9;
  for _ = 1 to 50 do
    Net.send net 0 ~iface:0 (Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:1 raw)
  done;
  Engine.run eng;
  Alcotest.(check int) "filter exempts" 50 !got

(* Trace *)

(* Differential property: the ring-buffered [Net] delivers exactly as the
   queue-based reference it replaced (test/net_reference.ml).  Random
   topologies with shared and stub LANs and attached hosts; random
   broadcast, targeted and host sends, link and node flaps while frames
   are in flight, loss, jitter, one-shot tampers, and routers that relay
   some frames from inside delivery.  Both must log the same deliveries
   (time, link, router and iface or host, packet identity), in the same
   order, and end with the same counters. *)

module type NET = sig
  type t

  type host_id

  val create : Engine.t -> Topology.t -> t

  val set_handler : t -> int -> (iface:int -> Packet.t -> unit) -> unit

  val send : t -> int -> iface:int -> ?to_node:int -> Packet.t -> unit

  val attach_host : t -> int -> addr:Addr.t -> (Packet.t -> unit) -> host_id

  val host_send : t -> host_id -> Packet.t -> unit

  val set_link_up : t -> int -> bool -> unit

  val set_node_up : t -> int -> bool -> unit

  val set_loss_rate : t -> ?prng:Pim_util.Prng.t -> ?filter:(Packet.t -> bool) -> float -> unit

  val set_jitter : t -> ?prng:Pim_util.Prng.t -> float -> unit

  val tamper_next : t -> int -> [ `Drop | `Duplicate | `Delay of float ] -> unit

  val on_send : t -> (int -> Packet.t -> unit) -> unit

  val on_deliver : t -> (int -> Packet.t -> unit) -> unit

  val on_drop : t -> (int -> Packet.t -> unit) -> unit

  val offered : t -> int

  val total_traversals : t -> int

  val dropped : t -> int

  val traversals : t -> int -> int
end

type net_action =
  | Send of int * int * int option  (* router, iface, target *)
  | Host_send of int
  | Link of int * bool
  | Node of int * bool
  | Tamper of int * [ `Drop | `Duplicate | `Delay of float ]

type net_scenario = {
  topo : Topology.t;
  hosts : (int * Addr.t) list;  (* link, address *)
  loss : float;
  jitter : float;
  actions : (float * net_action) list;  (* time; the packet id is the index *)
}

let gen_net_scenario seed =
  let rs = Random.State.make [| seed |] in
  let pick n = Random.State.int rs n and coin p = Random.State.float rs 1. < p in
  let n = 2 + pick 5 in
  let b = Topology.builder n in
  let delay () = List.nth [ 0.; 0.5; 1.0; 1.5 ] (pick 4) in
  for _ = 1 to 1 + pick (2 * n) do
    let u = pick n and v = pick n in
    if u <> v then ignore (Topology.add_p2p ~delay:(delay ()) b u v)
  done;
  for _ = 0 to pick 3 do
    let members = List.filter (fun _ -> coin 0.5) (List.init n Fun.id) in
    let members = if members = [] then [ pick n ] else members in
    ignore (Topology.add_lan ~delay:(delay ()) b members)
  done;
  let topo = Topology.freeze b in
  let links = Topology.n_links topo in
  let hosts =
    List.init (pick 5) (fun k ->
        let lid = pick links in
        ((lid, Addr.host ~router:(Topology.link topo lid).Topology.ends.(0) (k + 1))))
  in
  let send () =
    let u = pick n in
    let deg = Topology.degree topo u in
    if deg = 0 then Node (u, true)
    else
      let iface = pick deg in
      let ends = (Topology.link_of_iface topo u iface).Topology.ends in
      let target =
        if coin 0.3 then Some (if coin 0.8 then ends.(pick (Array.length ends)) else pick n)
        else None
      in
      Send (u, iface, target)
  in
  let action () =
    match pick 10 with
    | 4 | 5 when hosts <> [] -> Host_send (pick (List.length hosts))
    | 6 -> Link (pick links, coin 0.5)
    | 7 -> Node (pick n, coin 0.5)
    | 8 ->
      let tamper =
        match pick 3 with 0 -> `Drop | 1 -> `Duplicate | _ -> `Delay (List.nth [ 0.3; 2. ] (pick 2))
      in
      Tamper (pick links, tamper)
    | _ -> send ()
  in
  let actions = List.init (10 + pick 40) (fun _ -> (0.25 *. float_of_int (pick 40), action ())) in
  {
    topo;
    hosts;
    loss = List.nth [ 0.; 0.; 0.2 ] (pick 3);
    jitter = List.nth [ 0.; 0.; 0.4 ] (pick 3);
    actions;
  }

module Run_net (N : NET) = struct
  let run sc =
    let topo = sc.topo in
    let eng = Engine.create () in
    let net = N.create eng topo in
    let log = ref [] in
    let note fmt = Printf.ksprintf (fun s -> log := (Engine.now eng, s) :: !log) fmt in
    let id (p : Packet.t) = p.Packet.size in
    let group = Pim_net.Group.of_index 1 in
    for v = 0 to Topology.n_nodes topo - 1 do
      N.set_handler net v (fun ~iface pkt ->
          let lid = (Topology.link_of_iface topo v iface).Topology.id in
          note "router %d iface %d link %d pkt %d ttl %d" v iface lid (id pkt) pkt.Packet.ttl;
          (* Relay some frames from inside delivery, twice at most. *)
          if pkt.Packet.ttl > 62 && (id pkt + v) mod 3 = 0 then
            N.send net v ~iface:((id pkt + v) mod Topology.degree topo v)
              { pkt with Packet.ttl = pkt.Packet.ttl - 1 });
      N.set_handler net v (fun ~iface pkt ->
          note "router %d iface %d second pkt %d" v iface (id pkt))
    done;
    let hosts =
      Array.of_list
        (List.mapi
           (fun h (lid, addr) ->
             N.attach_host net lid ~addr (fun pkt -> note "host %d pkt %d" h (id pkt)))
           sc.hosts)
    in
    N.on_send net (fun lid pkt -> note "send link %d pkt %d" lid (id pkt));
    N.on_deliver net (fun lid pkt -> note "deliver link %d pkt %d" lid (id pkt));
    N.on_drop net (fun lid pkt -> note "drop link %d pkt %d" lid (id pkt));
    if sc.loss > 0. then N.set_loss_rate net ~prng:(Pim_util.Prng.create 5) sc.loss;
    if sc.jitter > 0. then N.set_jitter net ~prng:(Pim_util.Prng.create 6) sc.jitter;
    List.iteri
      (fun k (time, action) ->
        ignore
          (Engine.schedule_at eng time (fun () ->
               match action with
               | Send (u, iface, to_node) ->
                 N.send net u ~iface ?to_node
                   (Packet.multicast ~src:(Addr.router u) ~group ~size:k raw)
               | Host_send h ->
                 let _, addr = List.nth sc.hosts h in
                 N.host_send net hosts.(h) (Packet.multicast ~src:addr ~group ~size:k raw)
               | Link (lid, up) -> N.set_link_up net lid up
               | Node (u, up) -> N.set_node_up net u up
               | Tamper (lid, t) -> N.tamper_next net lid t)))
      sc.actions;
    Engine.run eng;
    ( List.rev !log,
      (N.offered net, N.total_traversals net, N.dropped net),
      List.init (Topology.n_links topo) (N.traversals net) )
end

module Run_new = Run_net (Net)
module Run_reference = Run_net (Net_reference)

let prop_net_matches_reference =
  QCheck.Test.make ~count:300 ~name:"ring-buffered Net delivers like the reference"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let sc = gen_net_scenario seed in
      let topo = sc.topo in
      let end_ifaces_ok =
        Array.for_all
          (fun (l : Topology.link) ->
            let ifaces = Topology.end_ifaces topo l.Topology.id in
            Array.length ifaces = Array.length l.Topology.ends
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun k v -> ifaces.(k) = Topology.iface_of_link topo v l.Topology.id)
                    l.Topology.ends))
          (Topology.links topo)
      in
      end_ifaces_ok && Run_new.run sc = Run_reference.run sc)

let test_trace () =
  let eng = Engine.create () in
  let trace = Trace.create eng in
  Trace.log trace ~node:1 ~tag:"a" "one";
  ignore (Engine.schedule eng ~after:2. (fun () -> Trace.logf trace ~node:2 ~tag:"b" "%d" 42));
  Engine.run eng;
  Alcotest.(check int) "count a" 1 (Trace.count trace ~tag:"a");
  (match Trace.find trace ~tag:"b" with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "timestamped" 2. r.Trace.time;
    Alcotest.(check string) "formatted" "42" r.Trace.detail
  | _ -> Alcotest.fail "expected one b record");
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.records trace))

let test_trace_disabled () =
  let eng = Engine.create () in
  let trace = Trace.create ~enabled:false eng in
  Trace.log trace ~node:1 ~tag:"a" "one";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.records trace));
  Trace.enable trace true;
  Trace.log trace ~node:1 ~tag:"a" "two";
  Alcotest.(check int) "recording resumes" 1 (List.length (Trace.records trace))

let () =
  Alcotest.run "pim_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every with start" `Quick test_engine_every_start;
          Alcotest.test_case "every self-cancel" `Quick test_engine_every_self_cancel;
          Alcotest.test_case "every cancels another timer mid-tick" `Quick
            test_engine_every_cancel_other;
          Alcotest.test_case "rejects negative times" `Quick test_engine_rejects_negative;
          Alcotest.test_case "cancel leaves no ghosts" `Quick test_engine_cancel_no_ghosts;
          Alcotest.test_case "cancel inside tick" `Quick test_engine_cancel_inside_tick;
          Alcotest.test_case "every with start 0" `Quick test_engine_every_start_zero;
          Alcotest.test_case "fifo across wheel reshapes" `Quick test_engine_fifo_across_reschedules;
          Alcotest.test_case "run until advances clock" `Quick test_engine_run_until_advances_clock;
          Alcotest.test_case "rearm in place" `Quick test_engine_rearm;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_wheel_matches_heap;
        ] );
      ( "net",
        [
          Alcotest.test_case "p2p delivery" `Quick test_net_p2p_delivery;
          Alcotest.test_case "no echo to sender" `Quick test_net_no_echo_to_sender;
          Alcotest.test_case "lan broadcast" `Quick test_net_lan_broadcast;
          Alcotest.test_case "lan targeted frame" `Quick test_net_lan_targeted;
          Alcotest.test_case "link down" `Quick test_net_link_down;
          Alcotest.test_case "link down in flight" `Quick test_net_link_down_in_flight;
          Alcotest.test_case "node down" `Quick test_net_node_down;
          Alcotest.test_case "node down in flight" `Quick test_net_node_down_in_flight;
          Alcotest.test_case "node down/up cycle" `Quick test_net_node_down_up_cycle;
          Alcotest.test_case "host with dead router" `Quick test_net_host_with_dead_router;
          Alcotest.test_case "offered accounting" `Quick test_net_offered_accounting;
          Alcotest.test_case "jitter reordering" `Quick test_net_jitter_reorder;
          Alcotest.test_case "link change notify" `Quick test_net_link_change_notify;
          Alcotest.test_case "node change notifies links" `Quick test_net_node_change_notifies_links;
          Alcotest.test_case "hosts" `Quick test_net_hosts;
          Alcotest.test_case "traversal counting" `Quick test_net_traversals;
          Alcotest.test_case "handler dispatch allocation" `Quick test_net_dispatch_alloc;
          Alcotest.test_case "counters: one slot per node and kind" `Quick test_counters_slots;
          Alcotest.test_case "counters allocation" `Quick test_counters_alloc;
          Alcotest.test_case "loss injection" `Quick test_net_loss;
          Alcotest.test_case "loss filter" `Quick test_net_loss_filter;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_net_matches_reference;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick test_trace;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
        ] );
    ]
