(* Chaos harness tests: fault scheduler semantics, reconvergence of PIM
   sparse mode under a scripted flap + crash/restart schedule, oracle
   detection of deliberately corrupted state, and a clean end-to-end
   differential run. *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Fault = Pim_sim.Fault
module Oracle = Pim_sim.Oracle
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Mdata = Pim_mcast.Mdata
module Fwd = Pim_mcast.Fwd
module Router = Pim_core.Router
module Deployment = Pim_core.Deployment
module Config = Pim_core.Config
module Chaos = Pim_exp.Chaos

let group = Group.of_index 3

(* {2 Reconvergence under a scripted schedule}

   Line 0-1-2-3-4-5: source behind router 0, member behind router 5, RP
   at 3.  A mid-line link flap and a transit-router crash/restart each
   cut the only path; after each heals, delivery must resume within a
   bound derived from the soft-state refresh timers. *)

let test_reconverges_after_flap_and_crash () =
  let topo = Classic.line 6 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let config = Config.fast in
  let rp_set = Pim_core.Rp_set.single group (Addr.router 3) in
  let d = Deployment.create_static ~config net ~rp_set in
  Router.join_local (Deployment.router d 5) group;
  let received = ref [] in
  Router.on_local_data (Deployment.router d 5) (fun pkt ->
      match pkt.Pim_net.Packet.payload with
      | Mdata.Data { Mdata.sent_at; _ } -> received := sent_at :: !received
      | _ -> ());
  for i = 0 to 109 do
    ignore
      (Engine.schedule_at eng
         (5.0 +. (0.5 *. float_of_int i))
         (fun () -> Router.send_local_data (Deployment.router d 0) ~group ()))
  done;
  (* Link 1 (between routers 1 and 2) flaps at t=20 for 6 s; router 2
     crashes at t=35 for 5 s and reboots with wiped state. *)
  let schedule =
    [
      { Fault.at = 20.; action = Fault.Link_flap (1, 6.) };
      { Fault.at = 35.; action = Fault.Node_crash (2, 5.) };
    ]
  in
  let fault =
    Fault.install ~restart:(fun u -> Router.restart (Deployment.router d u)) net schedule
  in
  let fib2_before = ref 0 and fib2_after_restart = ref (-1) in
  ignore
    (Engine.schedule_at eng 34.9 (fun () ->
         fib2_before := Fwd.count (Router.fib (Deployment.router d 2))));
  (* Joins need >= 1 s (one link delay) to reach the rebooted router, so
     at t=40.5 its FIB must still be empty — restart really wiped it. *)
  ignore
    (Engine.schedule_at eng 40.5 (fun () ->
         fib2_after_restart := Fwd.count (Router.fib (Deployment.router d 2))));
  Engine.run ~until:75. eng;
  let received = List.sort Float.compare !received in
  Alcotest.(check bool) "stream delivered at all" true (List.length received > 50);
  Alcotest.(check bool) "transit router had state before the crash" true (!fib2_before > 0);
  Alcotest.(check int) "restart wiped the transit FIB" 0 !fib2_after_restart;
  (* Packets sent while the fault is active and arriving before it heals
     are gone (the line has no alternate path, and downstream RPF checks
     drop in-flight stragglers once routes recompute).  Packets sent
     shortly before each heal time may legitimately arrive after it, so
     the asserted dead windows stop [eccentricity] seconds early. *)
  let delivered_in a b = List.exists (fun t -> t >= a && t <= b) received in
  Alcotest.(check bool) "flap cut the only path" false (delivered_in 20.0 24.4);
  Alcotest.(check bool) "crash cut the only path" false (delivered_in 35.0 38.4);
  (* Reconvergence bounds, derived from the Config timers. *)
  let first_after t0 = List.find_opt (fun t -> t >= t0) received in
  (match first_after 26. with
  | None -> Alcotest.fail "no delivery after the flap healed"
  | Some t ->
    Alcotest.(check bool)
      (Printf.sprintf "post-flap recovery %.1fs within jp_period" (t -. 26.))
      true
      (t -. 26. <= config.Config.jp_period));
  (match first_after 40. with
  | None -> Alcotest.fail "no delivery after the crashed router restarted"
  | Some t ->
    Alcotest.(check bool)
      (Printf.sprintf "post-restart recovery %.1fs within refresh bound" (t -. 40.))
      true
      (t -. 40.
      <= (2. *. config.Config.jp_period) +. (2. *. config.Config.sweep_interval)));
  (* The scheduler logged the whole story, restorations included. *)
  let log = Fault.log fault in
  Alcotest.(check bool) "fault log has restorations" true
    (List.exists (fun (_, m) -> m = "node 2 restarts") log
    && List.exists (fun (_, m) -> m = "link 1 restored") log)

(* {2 Oracle catches corrupted state}

   Converge a small deployment, then corrupt one router's FIB by hand:
   the state checks must flag exactly the broken invariant. *)

let converged_line () =
  let topo = Classic.line 4 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let static = Pim_routing.Static.create net in
  let rp_set = Pim_core.Rp_set.single group (Addr.router 2) in
  let d =
    Deployment.create ~config:Config.fast ~net ~ribs:(Pim_routing.Static.rib static) ~rp_set ()
  in
  Router.join_local (Deployment.router d 3) group;
  for i = 0 to 39 do
    ignore
      (Engine.schedule_at eng
         (1.0 +. (0.5 *. float_of_int i))
         (fun () -> Router.send_local_data (Deployment.router d 0) ~group ()))
  done;
  Engine.run ~until:30. eng;
  let oracle = Oracle.create net ~probe_id:(fun _ -> -1) in
  let checks =
    Pim_exp.Stack.pim_state_checks ~net ~rib:(Pim_routing.Static.rib static)
      ~fib:(fun u -> Router.fib (Deployment.router d u))
  in
  (eng, d, oracle, checks)

let run_checks oracle checks =
  List.iter (fun (inv, f) -> Oracle.run_check oracle ~invariant:inv f) checks

let test_oracle_detects_stale_oif () =
  let _eng, d, oracle, checks = converged_line () in
  run_checks oracle checks;
  Alcotest.(check int) "converged state is clean" 0 (List.length (Oracle.violations oracle));
  (* Force an oif pointing up the line, where no downstream state exists;
     give it a timer far in the future so soft-state expiry can't save
     us — exactly the corruption the sweep is supposed to prevent. *)
  let fib1 = Router.fib (Deployment.router d 1) in
  let entry =
    match Fwd.entries fib1 with
    | e :: _ -> e
    | [] -> Alcotest.fail "transit router has no state"
  in
  Fwd.add_oif entry 0 ~expires:1e9 ~local:false;
  run_checks oracle checks;
  let vs = Oracle.violations oracle in
  Alcotest.(check bool) "stale oif detected" true
    (List.exists (fun (v : Oracle.violation) -> v.Oracle.invariant = "stale-oif") vs)

let test_oracle_detects_bad_iif () =
  let _eng, d, oracle, checks = converged_line () in
  run_checks oracle checks;
  Alcotest.(check int) "converged state is clean" 0 (List.length (Oracle.violations oracle));
  let fib1 = Router.fib (Deployment.router d 1) in
  let entry =
    match Fwd.entries fib1 with
    | e :: _ -> e
    | [] -> Alcotest.fail "transit router has no state"
  in
  (* Point the incoming interface away from the RPF direction. *)
  entry.Fwd.iif <- (match entry.Fwd.iif with Some 0 -> Some 1 | _ -> Some 0);
  run_checks oracle checks;
  let vs = Oracle.violations oracle in
  Alcotest.(check bool) "iif inconsistency detected" true
    (List.exists (fun (v : Oracle.violation) -> v.Oracle.invariant = "iif-consistency") vs)

(* {2 On-wire loop detection} *)

let test_oracle_loop_freedom_on_wire () =
  let topo = Classic.line 2 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  Net.set_handler net 1 (fun ~iface:_ _ -> ());
  let oracle =
    Oracle.create ~max_copies:1 net ~probe_id:(fun pkt ->
        match pkt.Pim_net.Packet.payload with Mdata.Data i -> i.Mdata.seq | _ -> -1)
  in
  let pkt = Mdata.make ~src:(Addr.host ~router:0 1) ~group ~seq:0 ~sent_at:0. () in
  Net.send net 0 ~iface:0 pkt;
  Engine.run eng;
  Alcotest.(check int) "single traversal is fine" 0 (List.length (Oracle.violations oracle));
  (* The same sequence number crossing the same link again = loop. *)
  Net.send net 0 ~iface:0 pkt;
  Engine.run eng;
  let vs = Oracle.violations oracle in
  Alcotest.(check int) "duplicate traversal flagged" 1 (List.length vs);
  Alcotest.(check string) "as a loop" "loop-freedom" (List.hd vs).Oracle.invariant;
  (* A checkpoint starts a fresh epoch: the old counts are gone. *)
  Oracle.checkpoint oracle ~max_copies:1;
  Net.send net 0 ~iface:0 pkt;
  Engine.run eng;
  Alcotest.(check int) "fresh epoch, no new violation" 1
    (List.length (Oracle.violations oracle))

(* {2 Clean differential run} *)

let test_clean_differential_run () =
  let report = Chaos.run ~nodes:16 ~receivers:3 ~events:5 ~seed:1994 () in
  Alcotest.(check int) "all four protocols ran" 4 (List.length report.Chaos.rows);
  List.iter
    (fun (r : Chaos.row) ->
      Alcotest.(check bool)
        (r.Chaos.protocol ^ " delivered most of the stream")
        true
        (r.Chaos.deliveries > r.Chaos.expected / 2);
      Alcotest.(check (list pass))
        (r.Chaos.protocol ^ " violations")
        [] r.Chaos.violations)
    report.Chaos.rows;
  Alcotest.(check int) "verdict: no violations" 0 (Chaos.total_violations report);
  (* Same seed, same everything — the schedule is part of the contract. *)
  let report' = Chaos.run ~nodes:16 ~receivers:3 ~events:5 ~seed:1994 () in
  Alcotest.(check int) "deterministic schedule length" (List.length report.Chaos.schedule)
    (List.length report'.Chaos.schedule);
  List.iter2
    (fun (r : Chaos.row) (r' : Chaos.row) ->
      Alcotest.(check int) (r.Chaos.protocol ^ " deterministic deliveries") r.Chaos.deliveries
        r'.Chaos.deliveries)
    report.Chaos.rows report'.Chaos.rows

let () =
  Alcotest.run "pim_chaos"
    [
      ( "fault",
        [
          Alcotest.test_case "reconverges after flap and crash/restart" `Quick
            test_reconverges_after_flap_and_crash;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "detects stale oif" `Quick test_oracle_detects_stale_oif;
          Alcotest.test_case "detects bad iif" `Quick test_oracle_detects_bad_iif;
          Alcotest.test_case "loop freedom on the wire" `Quick test_oracle_loop_freedom_on_wire;
        ] );
      ( "differential",
        [
          Alcotest.test_case "clean run, zero violations" `Slow test_clean_differential_run;
        ] );
    ]
