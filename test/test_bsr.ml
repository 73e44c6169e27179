(* BSR election tests: standalone election convergence, re-election after
   a BSR crash, the qcheck election-agreement property over random
   topologies / candidate sets / message orderings, and the pinned
   RP-crash failover-through-election regression on the E2 grid. *)

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

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Random_graph = Pim_graph.Random_graph
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Bsr = Pim_core.Bsr
module Placement = Pim_core.Placement
module Router = Pim_core.Router
module Deployment = Pim_core.Deployment
module Config = Pim_core.Config

let group = Group.of_index 7

let addr_list = Alcotest.testable (Fmt.Dump.list (Fmt.of_to_string Addr.to_string)) (List.equal Addr.equal)

(* Standalone BSR deployment (no PIM routers): agents forward their own
   transit adverts over a static unicast substrate. *)
let standalone topo ~roles =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let static = Pim_routing.Static.create net in
  let bsr =
    Bsr.deploy ~config:Bsr.fast ~forward_unicast:true ~net
      ~ribs:(Pim_routing.Static.rib static) ~roles ()
  in
  (eng, net, bsr)

let roles_of topo ~cbsrs ~crps =
  Array.init (Topology.n_nodes topo) (fun u ->
      {
        Bsr.cbsr_priority = List.assoc_opt u cbsrs;
        crp_records =
          List.filter_map (fun (v, recs) -> if v = u then Some recs else None) crps
          |> List.concat;
      })

let test_election_converges () =
  let topo = Classic.grid 4 4 in
  let roles =
    roles_of topo
      ~cbsrs:[ (0, 1); (15, 2) ]
      ~crps:[ (5, [ (10, [ group ]) ]); (10, [ (0, []) ]) ]
  in
  let eng, net, bsr = standalone topo ~roles in
  Engine.run ~until:30. eng;
  for u = 0 to Topology.n_nodes topo - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "node %d elected the highest-preference C-BSR" u)
      (Some (Addr.to_string (Addr.router 15)))
      (Option.map Addr.to_string (Bsr.elected_bsr bsr u))
  done;
  let reference = Bsr.lookup bsr 0 group in
  Alcotest.(check bool) "mapping known" true (reference <> []);
  Alcotest.check addr_list "specific record outranks wildcard"
    [ Addr.router 5; Addr.router 10 ]
    reference;
  for u = 1 to Topology.n_nodes topo - 1 do
    Alcotest.check addr_list (Printf.sprintf "node %d agrees" u) reference (Bsr.lookup bsr u group)
  done;
  Alcotest.(check bool) "elections were won" true
    (Pim_sim.Counters.total (Net.counters net) Elections_won >= 1)

let test_bsr_crash_reelects () =
  let topo = Classic.grid 4 4 in
  let roles =
    roles_of topo ~cbsrs:[ (0, 1); (15, 2) ] ~crps:[ (5, [ (10, [ group ]) ]) ]
  in
  let eng, net, bsr = standalone topo ~roles in
  ignore (Engine.schedule_at eng 30. (fun () -> Net.set_node_up net 15 false));
  Engine.run ~until:90. eng;
  for u = 0 to Topology.n_nodes topo - 2 do
    Alcotest.(check (option string))
      (Printf.sprintf "node %d fell back to the surviving C-BSR" u)
      (Some (Addr.to_string (Addr.router 0)))
      (Option.map Addr.to_string (Bsr.elected_bsr bsr u));
    Alcotest.check addr_list
      (Printf.sprintf "node %d still maps the group" u)
      [ Addr.router 5 ] (Bsr.lookup bsr u group)
  done

(* {2 Election agreement (qcheck)}

   For random connected topologies, candidate sets, and message orderings
   (delivery jitter reorders frames), every live router converges to the
   same elected BSR and the identical group-to-RP mapping. *)

let groups2 = [ Group.of_index 7; Group.of_index 8 ]

let agreement_prop seed =
  let prng = Prng.create seed in
  let nodes = 6 + Prng.int prng 12 in
  let topo = Random_graph.generate ~prng ~nodes ~degree:3. () in
  let pick_nodes k = Prng.sample prng k nodes in
  let cbsrs = List.map (fun u -> (u, 1 + Prng.int prng 8)) (pick_nodes (1 + Prng.int prng 2)) in
  let crps =
    List.map
      (fun u ->
        let coverage = if Prng.bool prng then [] else [ List.nth groups2 (Prng.int prng 2) ] in
        (u, [ (Prng.int prng 16, coverage) ]))
      (pick_nodes (1 + Prng.int prng 3))
  in
  let roles = roles_of topo ~cbsrs ~crps in
  let eng, net, bsr = standalone topo ~roles in
  (* Random extra delay reorders frames: the orderings dimension. *)
  Net.set_jitter net ~prng:(Prng.split prng) 0.8;
  Engine.run ~until:60. eng;
  let ok = ref true in
  let ref_bsr = Bsr.elected_bsr bsr 0 in
  if ref_bsr = None then ok := false;
  for u = 1 to nodes - 1 do
    if not (Option.equal Addr.equal (Bsr.elected_bsr bsr u) ref_bsr) then ok := false
  done;
  List.iter
    (fun g ->
      let reference = Bsr.lookup bsr 0 g in
      for u = 1 to nodes - 1 do
        if not (List.equal Addr.equal (Bsr.lookup bsr u g) reference) then ok := false
      done)
    groups2;
  !ok

let qcheck_agreement =
  QCheck.Test.make ~count:30 ~name:"election agreement on random topologies"
    QCheck.(small_nat)
    (fun n -> agreement_prop (1994 + n))

(* {2 RP-crash failover through election (pinned regression)}

   E2 grid with no static RP configuration at all: the mapping exists
   only through the election.  Crashing the elected primary RP must
   re-map the group and re-home the receiver's shared tree within the
   hold-time + re-join budget, with delivery resuming. *)

let failover_run () =
  let topo = Classic.grid 3 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let static = Pim_routing.Static.create net in
  let mapping = [ (group, [ Addr.router 4; Addr.router 2 ]) ] in
  let roles =
    Placement.roles mapping ~n_nodes:9 ~cbsrs:[ (0, 1) ]
  in
  let bsr =
    Bsr.deploy ~config:Bsr.fast ~net ~ribs:(Pim_routing.Static.rib static) ~roles ()
  in
  let config =
    {
      Config.fast with
      Config.rp_reach_period = 1.5;
      rp_timeout = 5.;
      sweep_interval = 0.5;
      spt_policy = Config.Never;
    }
  in
  let dep =
    Deployment.create ~config ~bsr ~net ~ribs:(Pim_routing.Static.rib static)
      ~rp_set:Pim_core.Rp_set.empty ()
  in
  let receiver = Deployment.router dep 8 in
  (* Joined before the first bootstrap flood: the membership must be
     remembered and the tree built once the mapping arrives. *)
  Router.join_local receiver group;
  let arrivals = ref [] in
  Router.on_local_data receiver (fun _ -> arrivals := Engine.now eng :: !arrivals);
  let source = Deployment.router dep 0 in
  let rec send_loop t0 =
    if t0 < 75. then
      ignore
        (Engine.schedule_at eng t0 (fun () ->
             Router.send_local_data source ~group ();
             send_loop (t0 +. 0.5)))
  in
  send_loop 10.;
  ignore (Engine.schedule_at eng 30. (fun () -> Net.set_node_up net 4 false));
  Engine.run ~until:85. eng;
  ( List.sort Float.compare !arrivals,
    Pim_sim.Counters.total (Net.counters net) Rp_failovers,
    config )

let test_rp_crash_failover_through_election () =
  let times, failovers, config = failover_run () in
  let before = List.filter (fun t -> t <= 30.) times in
  let after = List.filter (fun t -> t > 30.) times in
  Alcotest.(check bool) "delivery established before the crash" true (List.length before > 10);
  Alcotest.(check bool) "delivery resumed after the crash" true (List.length after > 10);
  Alcotest.(check bool) "receiver failed over" true (failovers >= 1);
  (* Largest post-establishment gap stays within the failover budget:
     detection (rp_timeout or mapping change) + re-join latency. *)
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
    | _ -> acc
  in
  let gap = max_gap 0. (List.filter (fun t -> t > 15.) times) in
  let budget = config.Config.rp_timeout +. Bsr.failover_budget Bsr.fast +. 5. in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.2f within budget %.2f" gap budget)
    true (gap <= budget)

let test_failover_run_deterministic () =
  let times1, _, _ = failover_run () in
  let times2, _, _ = failover_run () in
  Alcotest.(check int) "same arrival count" (List.length times1) (List.length times2);
  List.iter2 (fun a b -> Alcotest.(check (float 1e-9)) "same arrival time" a b) times1 times2

(* {2 E2 seed threading}

   The failover experiment must be deterministic per seed and actually
   respond to the seed (satellite: [~seed] was ignored). *)

let test_failover_seed_threading () =
  let rows_a = Pim_exp.Failover.run ~timeouts:[ 5. ] ~seed:1 () in
  let rows_a' = Pim_exp.Failover.run ~timeouts:[ 5. ] ~seed:1 () in
  let rows_b = Pim_exp.Failover.run ~timeouts:[ 5. ] ~seed:2 () in
  List.iter2
    (fun (r : Pim_exp.Failover.row) (r' : Pim_exp.Failover.row) ->
      Alcotest.(check (float 1e-9)) "same-seed gap identical" r.Pim_exp.Failover.gap r'.Pim_exp.Failover.gap)
    rows_a rows_a';
  let a = (List.hd rows_a).Pim_exp.Failover.gap in
  let b = (List.hd rows_b).Pim_exp.Failover.gap in
  Alcotest.(check bool) "different seeds explore different interleavings" true (a <> b)

let () =
  Alcotest.run "pim_bsr"
    [
      ( "election",
        [
          Alcotest.test_case "converges on a grid" `Quick test_election_converges;
          Alcotest.test_case "re-elects after BSR crash" `Quick test_bsr_crash_reelects;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) qcheck_agreement;
        ] );
      ( "failover",
        [
          Alcotest.test_case "RP crash recovers through election" `Quick
            test_rp_crash_failover_through_election;
          Alcotest.test_case "failover run deterministic" `Quick test_failover_run_deterministic;
          Alcotest.test_case "E2 threads its seed" `Quick test_failover_seed_threading;
        ] );
    ]
