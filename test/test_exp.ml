(* Tests for the experiment harnesses (Pim_exp): sanity of every series
   the paper reproduction prints. *)

module Fig2a = Pim_exp.Fig2a
module Fig2b = Pim_exp.Fig2b
module Fig1 = Pim_exp.Fig1
module Overhead = Pim_exp.Overhead
module Failover = Pim_exp.Failover
module Ablation = Pim_exp.Ablation

let test_fig2a_bounds () =
  let rows = Fig2a.run ~trials:20 ~seed:7 () in
  Alcotest.(check int) "six degrees" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "degree %.0f: ratio >= 1 (%.3f)" r.Fig2a.degree r.Fig2a.min_ratio)
        true (r.Fig2a.min_ratio >= 1.);
      Alcotest.(check bool)
        (Printf.sprintf "degree %.0f: mean in a sane band (%.3f)" r.Fig2a.degree r.Fig2a.mean_ratio)
        true
        (r.Fig2a.mean_ratio >= 1.0 && r.Fig2a.mean_ratio < 2.0);
      Alcotest.(check int) "all trials counted" 20 r.Fig2a.trials)
    rows

let test_fig2a_deterministic () =
  let a = Fig2a.run ~trials:5 ~seed:3 () in
  let b = Fig2a.run ~trials:5 ~seed:3 () in
  Alcotest.(check bool) "same seed, same rows" true (a = b);
  let c = Fig2a.run ~trials:5 ~seed:4 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* Fanning the trials across domains must not change a single bit of the
   output: every trial's PRNG stream is split in trial order before the
   fan-out, and aggregation reads results in trial order. *)
let test_fig2a_parallel_identical () =
  let seq = Fig2a.run ~trials:24 ~degrees:[ 3.; 5. ] ~seed:11 () in
  List.iter
    (fun domains ->
      let par = Fig2a.run ~trials:24 ~degrees:[ 3.; 5. ] ~domains ~seed:11 () in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d rows identical to sequential" domains)
        true (par = seq))
    [ 2; 3; 7 ]

let test_fig2b_concentration () =
  let rows = Fig2b.run ~trials:2 ~groups:50 ~seed:7 () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "degree %.0f: CBT concentrates more (%.0f vs %.0f)" r.Fig2b.degree
           r.Fig2b.cbt_max_flows r.Fig2b.spt_max_flows)
        true
        (r.Fig2b.cbt_max_flows >= r.Fig2b.spt_max_flows);
      (* Hard cap: no link can carry more than groups x senders flows. *)
      Alcotest.(check bool) "below the groups*senders cap" true
        (r.Fig2b.cbt_max_flows <= 50. *. 32.))
    rows

let test_fig2b_rejects_bad_args () =
  Alcotest.check_raises "senders > members"
    (Invalid_argument "Fig2b.run: senders must be members") (fun () ->
      ignore (Fig2b.run ~members:4 ~senders:5 ~trials:1 ~seed:1 ()))

(* Regression: on a disconnected topology, a node that cannot reach the
   group has eccentricity [max_int] toward both senders and members; the
   seed implementation summed the two, wrapped negative, and crowned the
   disconnected node "optimal" core.  The core must always be able to reach
   every member when such a candidate exists. *)
let test_fig2b_optimal_core_disconnected () =
  let module Topology = Pim_graph.Topology in
  let module Spt = Pim_graph.Spt in
  (* Component A: 0-1-2-3 in a line (the group).  Component B: 4-5, cut off
     from the group entirely. *)
  let b = Topology.builder 6 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  ignore (Topology.add_p2p b 2 3);
  ignore (Topology.add_p2p b 4 5);
  let topo = Topology.freeze b in
  let trees = Array.init 6 (fun u -> Spt.single_source topo u) in
  let members = [ 0; 1; 2; 3 ] and senders = [ 0; 3 ] in
  let core = Fig2b.optimal_core trees ~senders ~members in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d reaches member %d" core m)
        true
        (trees.(core).Spt.dist.(m) <> max_int))
    members;
  (* With every candidate in reach of the group, the line's middle wins. *)
  Alcotest.(check bool) "core is on the group's component" true (core <= 3)

let test_fig1_shapes () =
  let rows = Fig1.run ~packets:20 () in
  Alcotest.(check int) "five protocols" 5 (List.length rows);
  let find name =
    List.find (fun r -> String.length r.Fig1.protocol >= String.length name
                        && String.sub r.Fig1.protocol 0 (String.length name) = name) rows
  in
  let dvmrp = find "DVMRP" in
  let pim_spt = find "PIM-SM (SPT" in
  let cbt = find "CBT" in
  (* All three members are served (3 x 20, PIM may duplicate one packet in
     the register transition or drop one in the SPT transition). *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s delivers (%d)" r.Fig1.protocol r.Fig1.deliveries)
        true
        (r.Fig1.deliveries >= 55 && r.Fig1.deliveries <= 65))
    rows;
  (* Dense mode keeps some state at every router that saw the flood;
     sparse mode state only along the tree. *)
  Alcotest.(check bool) "dense floods more data than PIM" true
    (dvmrp.Fig1.data_traversals > pim_spt.Fig1.data_traversals);
  Alcotest.(check bool) "dense needs almost no control" true
    (dvmrp.Fig1.control_traversals < pim_spt.Fig1.control_traversals);
  Alcotest.(check bool) "cbt data is the leanest" true
    (cbt.Fig1.data_traversals <= pim_spt.Fig1.data_traversals)

let test_overhead_trends () =
  let rows = Overhead.run ~nodes:30 ~packets:30 ~fractions:[ 0.1; 0.6 ] ~seed:5 () in
  let find frac name =
    List.find
      (fun r -> r.Overhead.fraction = frac && r.Overhead.protocol = name)
      rows
  in
  (* Sparse regime: dense-mode flooding costs far more data transmissions
     than PIM's explicit-join tree. *)
  let dvmrp_sparse = find 0.1 "DVMRP" in
  let pim_sparse = find 0.1 "PIM-SM (shared)" in
  Alcotest.(check bool)
    (Printf.sprintf "flooding dominates when sparse (%d vs %d)" dvmrp_sparse.Overhead.data_traversals
       pim_sparse.Overhead.data_traversals)
    true
    (dvmrp_sparse.Overhead.data_traversals > pim_sparse.Overhead.data_traversals);
  (* MOSPF stores membership at every router: state = members x routers. *)
  let mospf_sparse = find 0.1 "MOSPF" in
  let mospf_dense = find 0.6 "MOSPF" in
  Alcotest.(check int) "mospf state sparse" (3 * 30) mospf_sparse.Overhead.state_entries;
  Alcotest.(check int) "mospf state dense" (18 * 30) mospf_dense.Overhead.state_entries;
  (* Everyone delivers (PIM transition losses bounded). *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s frac %.1f delivers >= 88%% (%d/%d)" r.Overhead.protocol
           r.Overhead.fraction r.Overhead.deliveries r.Overhead.expected_deliveries)
        true
        (* PIM's SPT-transition window loses a few packets per member
           (section 3.3); everything else must be complete. *)
        (float_of_int r.Overhead.deliveries
        >= 0.88 *. float_of_int r.Overhead.expected_deliveries))
    rows

let test_failover_gap_tracks_timeout () =
  let rows = Failover.run ~timeouts:[ 5.; 15. ] ~seed:1 () in
  match rows with
  | [ short; long ] ->
    Alcotest.(check bool) "both fail over" true
      (short.Failover.failovers >= 1 && long.Failover.failovers >= 1);
    Alcotest.(check bool) "both resume" true
      (short.Failover.delivered_after > 0 && long.Failover.delivered_after > 0);
    Alcotest.(check bool)
      (Printf.sprintf "shorter timeout, shorter gap (%.1f < %.1f)" short.Failover.gap
         long.Failover.gap)
      true
      (short.Failover.gap < long.Failover.gap)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_policy_tradeoff () =
  let rows = Ablation.run_spt_policy ~seed:2 () in
  match rows with
  | [ shared; spt; threshold ] ->
    Alcotest.(check bool) "spt state costs more" true
      (spt.Ablation.state_entries > shared.Ablation.state_entries);
    Alcotest.(check bool) "shared tree concentrates at least as much" true
      (shared.Ablation.max_link_flows >= spt.Ablation.max_link_flows);
    Alcotest.(check bool) "spt delay no worse" true
      (spt.Ablation.mean_delay <= shared.Ablation.mean_delay +. 1e-9);
    Alcotest.(check bool) "threshold in between (state)" true
      (threshold.Ablation.state_entries >= shared.Ablation.state_entries)
  | _ -> Alcotest.fail "expected three rows"

let test_refresh_tradeoff () =
  let rows = Ablation.run_refresh ~periods:[ 2.; 8. ] ~seed:1 () in
  match rows with
  | [ fast; slow ] ->
    Alcotest.(check bool) "faster refresh costs more control" true
      (fast.Ablation.control_traversals > slow.Ablation.control_traversals);
    Alcotest.(check bool) "slower refresh keeps stale state longer" true
      (fast.Ablation.cleanup_time < slow.Ablation.cleanup_time);
    Alcotest.(check int) "delivery unaffected" fast.Ablation.deliveries slow.Ablation.deliveries
  | _ -> Alcotest.fail "expected two rows"

let test_groups_scaling () =
  let rows = Pim_exp.Groups_scaling.run ~nodes:30 ~group_counts:[ 5; 20 ] ~seed:3 () in
  let find groups name =
    List.find
      (fun r -> r.Pim_exp.Groups_scaling.groups = groups && r.Pim_exp.Groups_scaling.protocol = name)
      rows
  in
  (* Everyone delivers completely (PIM's occasional transition duplicate
     tolerated). *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %d groups complete" r.Pim_exp.Groups_scaling.protocol
           r.Pim_exp.Groups_scaling.groups)
        true
        (r.Pim_exp.Groups_scaling.deliveries >= r.Pim_exp.Groups_scaling.expected_deliveries))
    rows;
  (* DVMRP's flooding data cost dwarfs PIM's tree cost, at every scale. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) "flooding costs more data" true
        ((find n "DVMRP").Pim_exp.Groups_scaling.data_traversals
        > 2 * (find n "PIM-SM").Pim_exp.Groups_scaling.data_traversals))
    [ 5; 20 ];
  (* Dense-mode state is ~groups x routers; MOSPF's is groups x members x
     routers; PIM's stays proportional to the trees. *)
  Alcotest.(check int) "dvmrp state = groups x routers" (20 * 30)
    (find 20 "DVMRP").Pim_exp.Groups_scaling.state_entries;
  Alcotest.(check int) "mospf state = groups x members x routers" (20 * 3 * 30)
    (find 20 "MOSPF").Pim_exp.Groups_scaling.state_entries;
  Alcotest.(check bool) "pim state smallest of the source-tree protocols" true
    ((find 20 "PIM-SM").Pim_exp.Groups_scaling.state_entries
    < (find 20 "DVMRP").Pim_exp.Groups_scaling.state_entries)

let test_aggregation () =
  let rows = Pim_exp.Aggregation.run ~source_counts:[ 1; 6 ] ~packets:20 ~seed:1 () in
  let find sources aggregated =
    List.find
      (fun r ->
        r.Pim_exp.Aggregation.sources = sources && r.Pim_exp.Aggregation.aggregated = aggregated)
      rows
  in
  (* Identical complete delivery either way: prefix joins really do keep
     the per-source state refreshed. *)
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "sources=%d agg=%b complete" r.Pim_exp.Aggregation.sources
           r.Pim_exp.Aggregation.aggregated)
        r.Pim_exp.Aggregation.expected r.Pim_exp.Aggregation.deliveries)
    rows;
  (* With one source there is nothing to aggregate. *)
  Alcotest.(check int) "single source unchanged"
    (find 1 false).Pim_exp.Aggregation.join_entries
    (find 1 true).Pim_exp.Aggregation.join_entries;
  (* With several, message content shrinks substantially. *)
  Alcotest.(check bool) "fewer join entries" true
    (2 * (find 6 true).Pim_exp.Aggregation.join_entries
    < (find 6 false).Pim_exp.Aggregation.join_entries);
  Alcotest.(check bool) "fewer control bytes" true
    ((find 6 true).Pim_exp.Aggregation.control_bytes
    < (find 6 false).Pim_exp.Aggregation.control_bytes)

let test_churn () =
  let rows = Pim_exp.Churn.run ~receivers:4 ~duration:120. ~on_off_pairs:[ (30., 15.) ] ~seed:2 () in
  match rows with
  | [ r ] ->
    Alcotest.(check bool) "churn happened" true (r.Pim_exp.Churn.joins_observed > 4);
    Alcotest.(check bool) "joins eventually deliver" true
      (r.Pim_exp.Churn.mean_join_latency > 0. && r.Pim_exp.Churn.mean_join_latency < 30.);
    Alcotest.(check bool) "stream flowed" true (r.Pim_exp.Churn.deliveries > 50)
  | _ -> Alcotest.fail "expected one row"

let test_loss_robustness () =
  let rows = Pim_exp.Loss.run ~loss_rates:[ 0.; 0.25 ] ~packets:40 ~seed:4 () in
  let find name loss =
    List.find
      (fun r -> r.Pim_exp.Loss.protocol = name && r.Pim_exp.Loss.loss = loss)
      rows
  in
  (* Both keep delivering the bulk of the stream at 25% control loss. *)
  List.iter
    (fun name ->
      let r = find name 0.25 in
      Alcotest.(check bool)
        (Printf.sprintf "%s survives 25%% control loss (%d/%d)" name r.Pim_exp.Loss.deliveries
           r.Pim_exp.Loss.expected)
        true
        (float_of_int r.Pim_exp.Loss.deliveries >= 0.8 *. float_of_int r.Pim_exp.Loss.expected))
    [ "PIM-SM"; "CBT" ];
  (* PIM's periodic-refresh control rate does not grow with loss. *)
  Alcotest.(check bool) "pim control constant-rate" true
    ((find "PIM-SM" 0.25).Pim_exp.Loss.control_traversals
    <= (find "PIM-SM" 0.).Pim_exp.Loss.control_traversals);
  Alcotest.(check bool) "losses actually happened" true
    ((find "PIM-SM" 0.25).Pim_exp.Loss.control_dropped > 0)

let test_metrics_classification () =
  let topo = Pim_graph.Classic.line 2 in
  let eng = Pim_sim.Engine.create () in
  let net = Pim_sim.Net.create eng topo in
  let m = Pim_exp.Metrics.attach net in
  Pim_sim.Net.set_handler net 1 (fun ~iface:_ _ -> ());
  let g = Pim_net.Group.of_index 1 in
  let data = Pim_mcast.Mdata.make ~src:(Pim_net.Addr.host ~router:0 1) ~group:g ~seq:0 ~sent_at:0. () in
  Pim_sim.Net.send net 0 ~iface:0 data;
  let ctrl =
    Pim_net.Packet.unicast ~src:(Pim_net.Addr.router 0) ~dst:(Pim_net.Addr.router 1) ~size:24
      (Pim_net.Packet.Raw "ctl")
  in
  Pim_sim.Net.send net 0 ~iface:0 ctrl;
  (* A register carrying data counts as data. *)
  let reg = Pim_core.Message.register_packet ~src:(Pim_net.Addr.router 0) ~rp:(Pim_net.Addr.router 1) data in
  Pim_sim.Net.send net 0 ~iface:0 reg;
  Pim_sim.Engine.run eng;
  Alcotest.(check int) "data count" 2 (Pim_exp.Metrics.data_traversals m);
  Alcotest.(check int) "control count" 1 (Pim_exp.Metrics.control_traversals m);
  Alcotest.(check bool) "bytes accounted" true (Pim_exp.Metrics.data_bytes m > 2000);
  Alcotest.(check int) "max link" 3 (Pim_exp.Metrics.max_link_data m + Pim_exp.Metrics.control_traversals m);
  Pim_exp.Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Pim_exp.Metrics.data_traversals m)

(* {1 E11 workload models} *)

let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 1994)
    | None -> 1994
  in
  Random.State.make [| seed |]

module Workload = Pim_exp.Workload

let small_spec model =
  {
    (Workload.default_spec model) with
    Workload.nodes = 80;
    scale = 50;
    groups = 6;
    duration = 25.;
  }

let test_workload_schedule_shape () =
  let sched = Workload.generate (small_spec Workload.Zap) in
  let events = Array.to_list sched.Workload.events in
  Alcotest.(check bool) "non-empty" true (events <> []);
  (* Sorted by (t, receiver, seq). *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      (a.Workload.t < b.Workload.t
      || (a.Workload.t = b.Workload.t && (a.Workload.receiver, a.Workload.seq) < (b.Workload.receiver, b.Workload.seq)))
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted events);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "t in range" true (ev.Workload.t >= 0. && ev.Workload.t < 25.);
      Alcotest.(check bool) "group in range" true (ev.Workload.group >= 0 && ev.Workload.group < 6))
    events;
  (* Per receiver, joins and leaves alternate starting with a join. *)
  let per_rcv = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let l = Option.value (Hashtbl.find_opt per_rcv ev.Workload.receiver) ~default:[] in
      Hashtbl.replace per_rcv ev.Workload.receiver (ev.Workload.action :: l))
    events;
  Hashtbl.iter
    (fun r actions ->
      let rec alternating expect = function
        | [] -> true
        | a :: rest -> a = expect && alternating (if expect = Workload.Join then Workload.Leave else Workload.Join) rest
      in
      Alcotest.(check bool)
        (Printf.sprintf "receiver %d alternates join/leave" r)
        true
        (alternating Workload.Join (List.rev actions)))
    per_rcv

let test_workload_flashcrowd_ramp () =
  let spec = { (small_spec Workload.Flashcrowd) with Workload.scale = 400 } in
  let sched = Workload.generate spec in
  let crowd_joins =
    Array.to_list sched.Workload.events
    |> List.filter (fun ev -> ev.Workload.group = 0 && ev.Workload.action = Workload.Join)
  in
  Alcotest.(check bool) "crowd is most of scale" true (List.length crowd_joins > 300);
  (* The ramp is fast: the bulk of the crowd arrives within ~15 s. *)
  let late = List.filter (fun ev -> ev.Workload.t > 15.) crowd_joins in
  Alcotest.(check bool) "ramp finishes early" true (List.length late * 10 < List.length crowd_joins)

let test_workload_run_small () =
  let rep = Workload.run (small_spec Workload.Zap) in
  Alcotest.(check int) "five windows" 5 (List.length rep.Workload.rows);
  Alcotest.(check bool) "joins counted" true (rep.Workload.total_joins > 0);
  Alcotest.(check bool) "latency observed" true (rep.Workload.join_latency.Pim_util.Stats.n > 0);
  Alcotest.(check bool) "data flowed" true (rep.Workload.total_data > 0);
  Alcotest.(check bool) "control flowed" true (rep.Workload.total_control > 0);
  (* Windowed rows sum to the totals. *)
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rep.Workload.rows in
  Alcotest.(check int) "row joins sum" rep.Workload.total_joins (sum (fun r -> r.Workload.joins));
  Alcotest.(check int) "row data sum" rep.Workload.total_data (sum (fun r -> r.Workload.data_msgs));
  (* The oracle is clean at end of run. *)
  List.iter
    (fun (name, problems) -> Alcotest.(check int) (name ^ " clean") 0 problems)
    rep.Workload.oracle

let test_workload_json_deterministic () =
  let spec = small_spec Workload.Zipfian in
  let a = Pim_util.Json.to_string (Workload.report_to_json (Workload.run spec)) in
  let b = Pim_util.Json.to_string (Workload.report_to_json (Workload.run spec)) in
  Alcotest.(check string) "same seed, byte-identical JSON" a b;
  let c =
    Pim_util.Json.to_string
      (Workload.report_to_json (Workload.run { spec with Workload.seed = 7 }))
  in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_workload_rp_concentration_contrast () =
  (* The paper's multi-RP argument: sharding groups over several RPs
     spreads rendezvous load.  Topology and schedule are identical in
     both runs, so the single-RP node must bear strictly more
     adjacent-link load when all eight groups rendezvous at it than when
     six of them are sharded away to other backbone routers.  (Peak-vs-
     peak would be confounded by backbone through-traffic, which every
     transit router carries regardless of RP placement.) *)
  let spec =
    { (small_spec Workload.Zap) with Workload.nodes = 200; groups = 8; scale = 50 }
  in
  let single = Workload.run { spec with Workload.rp_strategy = Workload.Single } in
  let sharded = Workload.run { spec with Workload.rp_strategy = Workload.Sharded 4 } in
  let single_rp, single_load =
    match single.Workload.rp_loads with [ x ] -> x | _ -> Alcotest.fail "one RP expected"
  in
  let same_node_sharded =
    match List.assoc_opt single_rp sharded.Workload.rp_loads with
    | Some l -> l
    | None -> Alcotest.fail "single's RP node not in the sharded RP set"
  in
  Alcotest.(check bool)
    (Printf.sprintf "single RP node bears more load (%d > %d)" single_load same_node_sharded)
    true (single_load > same_node_sharded)

let prop_workload_domains_identity =
  QCheck.Test.make ~count:6 ~name:"workload schedule identical across domains"
    QCheck.(
      pair (int_range 0 3) (int_bound 1000))
    (fun (model_idx, seed) ->
      let model = List.nth Workload.models model_idx in
      let spec =
        { (small_spec model) with Workload.scale = 30; duration = 15.; seed }
      in
      let render domains = Workload.render_schedule (Workload.generate { spec with Workload.domains }) in
      let reference = render 1 in
      List.for_all (fun d -> String.equal reference (render d)) [ 2; 3; 8 ])

(* {1 Every protocol counter, pinned}

   One seeded scenario per protocol on a 14-router random graph: four
   members join, a non-member source sends twice a second, one member
   leaves, the first RP (or CBT core) is down for 30 s and reboots, the
   member rejoins, and the second RP is down for 3 s and reboots.
   PIM-SM runs under a live BSR election with two C-RPs for the group.
   Deployments are built the way {!Pim_exp.Stack} builds them.  Every
   counter's network-wide total and its value at the source, the first
   RP and the first member are compared against a table generated once;
   BSR counters have no per-node value. *)

let counter_rows protocol =
  let module Engine = Pim_sim.Engine in
  let module Net = Pim_sim.Net in
  let module Addr = Pim_net.Addr in
  let module Stack = Pim_exp.Stack in
  let module Counters = Pim_sim.Counters in
  let prng = Pim_util.Prng.create 19 in
  let topo = Pim_graph.Random_graph.generate ~prng ~nodes:14 ~degree:3. () in
  let picks = Pim_graph.Random_graph.pick_members ~prng ~nodes:14 ~count:7 in
  let rp1, rp2, source, members =
    match picks with r1 :: r2 :: s :: ms -> (r1, r2, s, ms) | _ -> assert false
  in
  let g = Pim_net.Group.of_index 7 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let n = Pim_graph.Topology.n_nodes topo in
  (* join, leave, send, restart, the kinds read per node as well, and
     the kinds only read network-wide. *)
  let join, leave, send, restart, kinds, total_only =
    match protocol with
    | Stack.Pim_sm ->
      let module R = Pim_core.Router in
      let ribs = Pim_routing.Static.rib (Pim_routing.Static.create net) in
      let roles =
        Pim_core.Placement.roles
          [ (g, [ Addr.router rp1; Addr.router rp2 ]) ]
          ~n_nodes:n
          ~cbsrs:
            (List.init n Fun.id
            |> List.filter (fun u -> u <> rp1 && u <> rp2)
            |> List.filteri (fun i _ -> i < 2)
            |> List.mapi (fun i u -> (u, 2 - i)))
      in
      let b = Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~net ~ribs ~roles () in
      let d =
        Pim_core.Deployment.create ~config:Pim_core.Config.fast ~bsr:b ~net ~ribs
          ~rp_set:Pim_core.Rp_set.empty ()
      in
      let r = Pim_core.Deployment.router d in
      let kinds =
        Counters.
          [ Jp_msgs_sent; Joins_sent; Prunes_sent; Registers_sent; Rp_reach_sent; Data_forwarded;
            Data_dropped_iif; Data_dup_suppressed; Data_dropped_no_state; Data_delivered_local;
            Unicast_forwarded; Spt_switches; Rp_failovers ]
      in
      let bsr_kinds =
        Counters.
          [ Bootstraps_sent; Bootstraps_forwarded; Adverts_sent; Elections_won; Mapping_changes ]
      in
      ( (fun u -> R.join_local (r u) g),
        (fun u -> R.leave_local (r u) g),
        (fun u -> R.send_local_data (r u) ~group:g ()),
        (fun u ->
          R.restart (r u);
          Pim_core.Bsr.restart b u),
        kinds,
        bsr_kinds )
    | Stack.Pim_dm | Stack.Dvmrp ->
      let module R = Pim_dense.Router in
      let mode = if protocol = Stack.Pim_dm then R.Pim_dm else R.Dvmrp in
      let d = R.Deployment.create_static ~config:{ R.fast_config with mode; graft = true } net in
      let r = R.Deployment.router d in
      let kinds =
        Counters.
          [ Joins_sent; Prunes_sent; Data_forwarded; Data_dropped_iif; Data_delivered_local ]
      in
      ( (fun u -> R.join_local (r u) g),
        (fun u -> R.leave_local (r u) g),
        (fun u -> R.send_local_data (r u) ~group:g ()),
        (fun u -> R.restart (r u)),
        kinds,
        [] )
    | Stack.Cbt ->
      let module R = Pim_cbt.Router in
      let d =
        R.Deployment.create_static ~config:R.fast_config net ~core_of:(fun _ ->
            Some (Addr.router rp1))
      in
      let r = R.Deployment.router d in
      let kinds =
        Counters.
          [ Joins_sent; Acks_sent; Echoes_sent; Quits_sent; Flushes; Data_forwarded;
            Data_encapsulated; Data_dropped_off_tree; Data_delivered_local ]
      in
      ( (fun u -> R.join_local (r u) g),
        (fun u -> R.leave_local (r u) g),
        (fun u -> R.send_local_data (r u) ~group:g ()),
        (fun u -> R.restart (r u)),
        kinds,
        [] )
    | Stack.Mospf ->
      let module R = Pim_mospf.Router in
      let d = R.Deployment.create ~lsa_refresh:5. net in
      let r = R.Deployment.router d in
      let kinds =
        Counters.
          [ Lsa_sent; Spf_runs; Data_forwarded; Data_dropped_iif; Data_dropped_off_tree;
            Data_delivered_local ]
      in
      ( (fun u -> R.join_local (r u) g),
        (fun u -> R.leave_local (r u) g),
        (fun u -> R.send_local_data (r u) ~group:g ()),
        (fun u -> R.restart (r u)),
        kinds,
        [] )
  in
  let at time f = ignore (Engine.schedule_at eng time f) in
  at 0.5 (fun () -> List.iter join members);
  for i = 0 to 129 do
    at (3. +. (0.5 *. float_of_int i)) (fun () -> send source)
  done;
  at 12. (fun () -> leave (List.hd members));
  at 15. (fun () -> Net.set_node_up net rp1 false);
  at 45. (fun () ->
      Net.set_node_up net rp1 true;
      restart rp1);
  at 50. (fun () -> join (List.hd members));
  at 58. (fun () -> Net.set_node_up net rp2 false);
  at 61. (fun () ->
      Net.set_node_up net rp2 true;
      restart rp2);
  Engine.run ~until:75. eng;
  let c = Net.counters net in
  let row k nodes =
    Printf.sprintf "%s %s %d%s" (Stack.to_string protocol) (Counters.name k) (Counters.total c k)
      nodes
  in
  List.map
    (fun k ->
      [ source; rp1; List.hd members ]
      |> List.map (fun u -> string_of_int (Counters.get c ~node:u k))
      |> String.concat "," |> Printf.sprintf " [%s]" |> row k)
    kinds
  @ List.map (fun k -> row k "") total_only

let expected_counters =
  [
    "PIM-SM jp_msgs_sent 174 [0,16,17]";
    "PIM-SM joins_sent 152 [0,7,13]";
    "PIM-SM prunes_sent 71 [0,10,8]";
    "PIM-SM registers_sent 55 [55,0,0]";
    "PIM-SM rp_reach_sent 24 [0,9,0]";
    "PIM-SM data_forwarded 715 [110,22,0]";
    "PIM-SM data_dropped_iif 25 [0,2,2]";
    "PIM-SM data_dup_suppressed 8 [0,0,0]";
    "PIM-SM data_dropped_no_state 2 [0,0,0]";
    "PIM-SM data_delivered_local 378 [0,0,36]";
    "PIM-SM unicast_forwarded 63 [18,1,1]";
    "PIM-SM spt_switches 4 [0,0,1]";
    "PIM-SM rp_failovers 4 [0,0,0]";
    "PIM-SM bootstraps_sent 32";
    "PIM-SM bootstraps_forwarded 376";
    "PIM-SM adverts_sent 45";
    "PIM-SM elections_won 2";
    "PIM-SM mapping_changes 28";
    "PIM-DM joins_sent 1 [0,0,1]";
    "PIM-DM prunes_sent 290 [0,36,16]";
    "PIM-DM data_forwarded 1195 [169,16,99]";
    "PIM-DM data_dropped_iif 192 [0,24,8]";
    "PIM-DM data_delivered_local 434 [0,0,50]";
    "DVMRP joins_sent 1 [0,0,1]";
    "DVMRP prunes_sent 100 [0,12,8]";
    "DVMRP data_forwarded 814 [157,0,30]";
    "DVMRP data_dropped_iif 12 [0,6,0]";
    "DVMRP data_delivered_local 432 [0,0,50]";
    "CBT joins_sent 20 [0,0,3]";
    "CBT acks_sent 17 [0,6,0]";
    "CBT echoes_sent 139 [0,0,12]";
    "CBT quits_sent 1 [0,0,1]";
    "CBT flushes 4 [0,0,0]";
    "CBT data_forwarded 163 [0,73,0]";
    "CBT data_encapsulated 130 [130,0,0]";
    "CBT data_dropped_off_tree 4 [0,0,4]";
    "CBT data_delivered_local 102 [0,0,48]";
    "MOSPF lsa_sent 1683 [59,83,187]";
    "MOSPF spf_runs 256 [41,0,18]";
    "MOSPF data_forwarded 700 [130,0,0]";
    "MOSPF data_dropped_iif 4 [0,0,0]";
    "MOSPF data_dropped_off_tree 7 [0,0,5]";
    "MOSPF data_delivered_local 431 [0,0,49]";
  ]

let test_counters_pinned () =
  let got = List.concat_map counter_rows Pim_exp.Stack.all in
  Alcotest.(check (list string)) "every counter" expected_counters got

(* {1 Allocation budget of the forwarding path}

   With no trace attached, forwarding builds no event payloads: every
   emission site sits behind the router's [tracing] test.  A 3x3 grid with
   three members is warmed up (trees built, SPT switch done, MOSPF plans
   cached), then 400 packets are forwarded, the network drains, and the
   minor words allocated per link traversal — data, control and timers
   together — must stay under a fixed budget.  The budgets are the figures
   measured once the link layer stopped allocating per frame, PIM-SM,
   PIM-DM and CBT walked their oif state in place, callbacks and Net's
   handlers were no longer over-applied through [Vec.get], and MOSPF
   kept shared LSA records and int-keyed plans (PIM-SM 46.7, PIM-DM
   38.9, CBT 36.0, MOSPF 36.8 words; before, 267, 248, 239 and 157) plus
   ~10%.
   One unguarded per-packet event (e.g. [Pkt_deliver]) costs 70-80 words
   a traversal here, and a receiver list built per frame 15-30; either
   breaks them.  The traced run checks the guard still lets events
   through when a trace is attached. *)

let forwarding_words ~traced protocol =
  let module Engine = Pim_sim.Engine in
  let module Net = Pim_sim.Net in
  let module Trace = Pim_sim.Trace in
  let module Stack = Pim_exp.Stack in
  let g = Pim_net.Group.of_index 1 in
  let eng = Engine.create () in
  let net = Net.create eng (Pim_graph.Classic.grid 3 3) in
  let trace = if traced then Some (Trace.create eng) else None in
  let s =
    List.assoc g (Stack.create_many ?trace ~placement:[ (g, [ 4 ]) ] ~groups:[ g ] ~net protocol)
  in
  List.iter s.Stack.join [ 2; 6; 8 ];
  let delivered = ref 0 in
  List.iter (fun m -> s.Stack.on_data m (fun _ -> incr delivered)) [ 2; 6; 8 ];
  let send_burst ~start ~every n =
    for i = 0 to n - 1 do
      ignore
        (Engine.schedule_at eng
           (start +. (every *. float_of_int i))
           (fun () -> s.Stack.send_from 0))
    done
  in
  Engine.run ~until:10. eng;
  send_burst ~start:10. ~every:0.5 20;
  Engine.run ~until:30. eng;
  let n = 400 in
  send_burst ~start:30. ~every:0.05 n;
  let t0 = Net.total_traversals net and d0 = !delivered and w0 = Gc.minor_words () in
  Engine.run ~until:(40. +. (0.05 *. float_of_int n)) eng;
  let words = Gc.minor_words () -. w0 and traversals = Net.total_traversals net - t0 in
  Alcotest.(check int) "every packet reached every member" (3 * n) (!delivered - d0);
  let events =
    match trace with None -> [] | Some tr -> List.map (fun (_, _, e) -> e) (Trace.events tr)
  in
  (words /. float_of_int traversals, events)

let test_forwarding_alloc_budget () =
  let is_deliver = function Pim_sim.Event.Pkt_deliver _ -> true | _ -> false in
  List.iter
    (fun (protocol, budget, delivers_traced) ->
      let name = Pim_exp.Stack.to_string protocol in
      let untraced, none = forwarding_words ~traced:false protocol in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per traversal <= %.0f" name untraced budget)
        true (untraced <= budget);
      Alcotest.(check int) (name ^ ": no trace, no events") 0 (List.length none);
      let _, events = forwarding_words ~traced:true protocol in
      (* PIM-DM and CBT emit no per-packet event; their traced run must
         still record the tree-building ones. *)
      let seen = List.length (if delivers_traced then List.filter is_deliver events else events) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: traced run records %s (%d)" name
           (if delivers_traced then "Pkt_deliver" else "events")
           seen)
        true (seen > 0))
    [
      (Pim_exp.Stack.Pim_sm, 52., true);
      (Pim_exp.Stack.Pim_dm, 43., false);
      (Pim_exp.Stack.Cbt, 40., false);
      (Pim_exp.Stack.Mospf, 41., true);
    ]

(* {1 Allocation budget of the soft-state ticks}

   The periodic sweep and refresh walk every FIB entry in place
   ([Fwd.iter]) and reach its protocol state on the entry itself, so a
   tick allocates in proportion to what it changes or sends, not to a
   snapshot of the table.  A 6x6 grid carries 24 groups.  PIM-SM builds
   its "(*,G)" trees from joins alone.  PIM-DM floods one packet per group
   to build its (S,G) entries and prune state, then forwards no more
   data.  Each tick is then run by hand on every router, a few rounds,
   with the network drained between rounds and outside the measurement,
   and the minor words per FIB entry per tick must stay under a budget:
   the figures measured with the in-place walks (PIM-SM sweep 3.9,
   refresh 77.8, PIM-DM sweep 22.0 words; before, 36.5, 110.4 and 110.3)
   plus ~10%.  Walking a [Fwd.entries] snapshot instead costs about 6
   words an entry, so it breaks them. *)

let tick_words ~rounds ~routers ~entries ~drain tick =
  let words = ref 0. in
  for _ = 1 to rounds do
    let w0 = Gc.minor_words () in
    Array.iter tick routers;
    words := !words +. (Gc.minor_words () -. w0);
    drain ()
  done;
  !words /. float_of_int (rounds * entries)

let test_tick_alloc_budget () =
  let module Engine = Pim_sim.Engine in
  let module Net = Pim_sim.Net in
  let module Group = Pim_net.Group in
  let module Addr = Pim_net.Addr in
  let n_groups = 24 and side = 6 in
  let n = side * side in
  let groups = List.init n_groups (fun k -> (k, Group.of_index (k + 1))) in
  (* Members of group [k]: six routers spread over the grid. *)
  let members k = List.init 6 (fun j -> ((k * 7) + (j * 11)) mod n) in
  let setup () =
    let eng = Engine.create () in
    (eng, Net.create eng (Pim_graph.Classic.grid side side))
  in
  let drain eng () = Engine.run ~until:(Engine.now eng +. 0.5) eng in
  let check name words budget =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f words per entry per tick <= %.1f" name words budget)
      true (words <= budget)
  in
  (* PIM-SM: "(*,G)" trees from joins, no data. *)
  let eng, net = setup () in
  let rp_set =
    Pim_core.Rp_set.of_list
      (List.map (fun (k, g) -> (g, [ Addr.router ((k * 5) mod n) ])) groups)
  in
  let d = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set in
  List.iter
    (fun (k, g) ->
      List.iter (fun m -> Pim_core.Router.join_local (Pim_core.Deployment.router d m) g) (members k))
    groups;
  Engine.run ~until:20. eng;
  let routers = Pim_core.Deployment.routers d in
  let entries = Pim_core.Deployment.total_entries d in
  Alcotest.(check bool) (Printf.sprintf "PIM-SM: many entries (%d)" entries) true (entries > 200);
  let tick = tick_words ~rounds:5 ~routers ~entries ~drain:(drain eng) in
  check "PIM-SM sweep" (tick Pim_core.Router.sweep) 4.3;
  check "PIM-SM refresh" (tick Pim_core.Router.periodic_refresh) 86.;
  (* PIM-DM: one flooded packet per group builds the (S,G) entries and
     the prunes; no data while measuring. *)
  let eng, net = setup () in
  let config = { Pim_dense.Router.fast_config with mode = Pim_dense.Router.Pim_dm; graft = true } in
  let d = Pim_dense.Router.Deployment.create_static ~config net in
  let router = Pim_dense.Router.Deployment.router d in
  List.iter (fun (k, g) -> List.iter (fun m -> Pim_dense.Router.join_local (router m) g) (members k)) groups;
  List.iter (fun (k, g) -> Pim_dense.Router.send_local_data (router ((k * 5) mod n)) ~group:g ()) groups;
  Engine.run ~until:5. eng;
  let routers = Array.init n router in
  let entries = Pim_dense.Router.Deployment.total_entries d in
  Alcotest.(check bool) (Printf.sprintf "PIM-DM: many entries (%d)" entries) true (entries > 200);
  check "PIM-DM sweep" (tick_words ~rounds:5 ~routers ~entries ~drain:(drain eng) Pim_dense.Router.sweep) 24.

let () =
  Alcotest.run "pim_exp"
    [
      ( "fig2a",
        [
          Alcotest.test_case "ratio bounds" `Quick test_fig2a_bounds;
          Alcotest.test_case "deterministic" `Quick test_fig2a_deterministic;
          Alcotest.test_case "parallel identical" `Quick test_fig2a_parallel_identical;
        ] );
      ( "fig2b",
        [
          Alcotest.test_case "concentration" `Quick test_fig2b_concentration;
          Alcotest.test_case "rejects bad args" `Quick test_fig2b_rejects_bad_args;
          Alcotest.test_case "optimal core on disconnected topology" `Quick
            test_fig2b_optimal_core_disconnected;
        ] );
      ("fig1", [ Alcotest.test_case "shapes" `Quick test_fig1_shapes ]);
      ("overhead", [ Alcotest.test_case "trends" `Quick test_overhead_trends ]);
      ("failover", [ Alcotest.test_case "gap tracks timeout" `Quick test_failover_gap_tracks_timeout ]);
      ( "ablation",
        [
          Alcotest.test_case "policy tradeoff" `Quick test_ablation_policy_tradeoff;
          Alcotest.test_case "refresh tradeoff" `Quick test_refresh_tradeoff;
        ] );
      ("groups", [ Alcotest.test_case "scaling with group count" `Quick test_groups_scaling ]);
      ("aggregation", [ Alcotest.test_case "source aggregation (E6)" `Quick test_aggregation ]);
      ("churn", [ Alcotest.test_case "dynamic groups (E7)" `Quick test_churn ]);
      ("loss", [ Alcotest.test_case "control-loss robustness (E8)" `Quick test_loss_robustness ]);
      ("metrics", [ Alcotest.test_case "classification" `Quick test_metrics_classification ]);
      ("counters", [ Alcotest.test_case "every kind pinned" `Quick test_counters_pinned ]);
      ( "workload",
        [
          Alcotest.test_case "schedule shape" `Quick test_workload_schedule_shape;
          Alcotest.test_case "flashcrowd ramp" `Quick test_workload_flashcrowd_ramp;
          Alcotest.test_case "small run (E11)" `Quick test_workload_run_small;
          Alcotest.test_case "json deterministic" `Quick test_workload_json_deterministic;
          Alcotest.test_case "rp concentration contrast" `Quick
            test_workload_rp_concentration_contrast;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_workload_domains_identity;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "forwarding allocation budget" `Quick test_forwarding_alloc_budget;
          Alcotest.test_case "tick allocation budget" `Quick test_tick_alloc_budget;
        ] );
    ]
