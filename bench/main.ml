(* Benchmark harness.

   Three halves:

   1. Regeneration: prints the rows/series of every figure and experiment
      indexed in DESIGN.md (Figure 2a, Figure 2b, Figure 1, E1-E4), at
      reduced trial counts so the whole run finishes in about a minute.
      `dune exec bin/pimsim.exe -- <experiment> --trials N` reproduces any
      of them at paper scale.

   2. Timing: one Bechamel micro/meso-benchmark per experiment id —
      fig2a and fig2b single trials, the Figure 1 simulation, one
      overhead point — plus micro-benchmarks of the underlying machinery
      (Dijkstra, event queue, FIB matching, join processing).

   3. `--json [PATH]`: a machine-readable baseline.  Runs the Figure 2
      hot-path subjects plus the substrate micro-benchmarks with a plain
      wall-clock/GC harness and writes per-benchmark wall time and
      allocation figures as JSON (default PATH: BENCH_fig2.json).  Later
      scaling PRs diff their numbers against the committed baseline; see
      EXPERIMENTS.md. *)

open Bechamel
open Toolkit

let seed = 1994

(* {1 Regeneration} *)

let regenerate () =
  Format.printf "================================================================@.";
  Format.printf "Paper series regeneration (reduced trials; see EXPERIMENTS.md)@.";
  Format.printf "================================================================@.@.";
  Format.printf "%a@." Pim_exp.Fig2a.pp_rows (Pim_exp.Fig2a.run ~trials:200 ~seed ());
  Format.printf "%a@." Pim_exp.Fig2b.pp_rows (Pim_exp.Fig2b.run ~trials:10 ~seed ());
  Format.printf "%a@." Pim_exp.Fig1.pp_results (Pim_exp.Fig1.run ());
  Format.printf "%a@." Pim_exp.Overhead.pp_rows (Pim_exp.Overhead.run ~seed ());
  Format.printf "%a@." Pim_exp.Failover.pp_rows (Pim_exp.Failover.run ~seed ());
  Format.printf "%a@." Pim_exp.Failover.pp_strategy_rows
    (Pim_exp.Failover.run_strategies ~seed ());
  Format.printf "%a@." Pim_exp.Rp_placement.pp_rows (Pim_exp.Rp_placement.run ~trials:4 ~seed ());
  Format.printf "%a@." Pim_exp.Ablation.pp_policy_rows (Pim_exp.Ablation.run_spt_policy ~seed ());
  Format.printf "%a@." Pim_exp.Ablation.pp_refresh_rows (Pim_exp.Ablation.run_refresh ~seed ());
  Format.printf "%a@." Pim_exp.Groups_scaling.pp_rows
    (Pim_exp.Groups_scaling.run ~group_counts:[ 10; 40; 120 ] ~seed ());
  Format.printf "%a@." Pim_exp.Aggregation.pp_rows (Pim_exp.Aggregation.run ~seed ());
  Format.printf "%a@." Pim_exp.Churn.pp_rows (Pim_exp.Churn.run ~seed ());
  Format.printf "%a@." Pim_exp.Loss.pp_rows (Pim_exp.Loss.run ~seed ())

(* {1 Benchmark subjects} *)

(* One Figure 2(a) trial: generate a 50-node graph, place a 10-member
   group, find the optimal core and both max delays. *)
let bench_fig2a =
  let prng = Pim_util.Prng.create seed in
  Test.make ~name:"fig2a-trial"
    (Staged.stage (fun () ->
         let topo = Pim_graph.Random_graph.generate ~prng ~nodes:50 ~degree:4. () in
         let members = Pim_graph.Random_graph.pick_members ~prng ~nodes:50 ~count:10 in
         let apsp = Pim_graph.Spt.all_pairs topo in
         let spt = Pim_graph.Center.spt_max_delay apsp ~senders:members ~receivers:members in
         let _, cbt = Pim_graph.Center.optimal apsp ~senders:members ~receivers:members in
         Sys.opaque_identity (spt, cbt)))

(* One Figure 2(b) network: 300 groups of 40 members, flows per link under
   both tree types. *)
let bench_fig2b =
  Test.make ~name:"fig2b-network"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pim_exp.Fig2b.run ~trials:1 ~degrees:[ 4. ] ~seed ())))

(* The full Figure 1 scenario (all five protocols in the simulator). *)
let bench_fig1 =
  Test.make ~name:"fig1-scenario"
    (Staged.stage (fun () -> Sys.opaque_identity (Pim_exp.Fig1.run ~packets:10 ())))

(* One E1 overhead point (all six protocol rows at one density). *)
let bench_overhead_point =
  Test.make ~name:"e1-overhead-point"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pim_exp.Overhead.run ~nodes:30 ~packets:10 ~fractions:[ 0.2 ] ~seed ())))

(* E2: one failover run. *)
let bench_failover =
  Test.make ~name:"e2-failover-run"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pim_exp.Failover.run ~timeouts:[ 5. ] ~seed ())))

(* E2 strategy comparison: one full BSR election + RP-crash failover
   run — bootstrap flooding, C-RP adverts, hash mapping, crash,
   re-election, recovery. *)
let bench_failover_election =
  Test.make ~name:"e2-failover-election"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pim_exp.Failover.run_strategies ~strategies:[ "bsr" ] ~seed ())))

(* E3: the three-policy ablation. *)
let bench_ablation =
  Test.make ~name:"e3-policy-ablation"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pim_exp.Ablation.run_spt_policy ~nodes:20 ~seed ())))

(* E5: one group-count point (four protocols, 20 groups). *)
let bench_groups_point =
  Test.make ~name:"e5-groups-point"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pim_exp.Groups_scaling.run ~nodes:30 ~group_counts:[ 20 ] ~seed ())))

(* E4: one refresh-period run. *)
let bench_refresh =
  Test.make ~name:"e4-refresh-run"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pim_exp.Ablation.run_refresh ~periods:[ 4. ] ~seed ())))

(* {2 Micro-benchmarks of the substrate} *)

let fixed_topo =
  let prng = Pim_util.Prng.create 42 in
  Pim_graph.Random_graph.generate ~prng ~nodes:50 ~degree:4. ()

let bench_dijkstra =
  Test.make ~name:"dijkstra-50n"
    (Staged.stage (fun () -> Sys.opaque_identity (Pim_graph.Spt.single_source fixed_topo 0)))

let bench_all_pairs =
  Test.make ~name:"all-pairs-50n"
    (Staged.stage (fun () -> Sys.opaque_identity (Pim_graph.Spt.all_pairs fixed_topo)))

let bench_event_queue =
  Test.make ~name:"engine-1k-events"
    (Staged.stage (fun () ->
         let eng = Pim_sim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Pim_sim.Engine.schedule eng ~after:(float_of_int (i mod 97)) (fun () -> ()))
         done;
         Pim_sim.Engine.run eng;
         Sys.opaque_identity eng))

let bench_fib_match =
  let fib = Pim_mcast.Fwd.create () in
  let g = Pim_net.Group.of_index 7 in
  let rp = Pim_net.Addr.router 1 in
  for i = 0 to 63 do
    let gi = Pim_net.Group.of_index i in
    Pim_mcast.Fwd.insert fib (Pim_mcast.Fwd.make_star ~group:gi ~rp ~iif:None ~expires:1.);
    Pim_mcast.Fwd.insert fib
      (Pim_mcast.Fwd.make_sg ~group:gi ~source:(Pim_net.Addr.host ~router:i 1) ~iif:None
         ~expires:1. ())
  done;
  let src = Pim_net.Addr.host ~router:7 1 in
  Test.make ~name:"fib-match-128-entries"
    (Staged.stage (fun () -> Sys.opaque_identity (Pim_mcast.Fwd.match_data fib g ~src)))

let bench_join_processing =
  (* Time a complete shared-tree setup: 1 join propagating over 5 hops. *)
  Test.make ~name:"pim-join-propagation"
    (Staged.stage (fun () ->
         let topo = Pim_graph.Classic.line 6 in
         let eng = Pim_sim.Engine.create () in
         let net = Pim_sim.Net.create eng topo in
         let g = Pim_net.Group.of_index 1 in
         let rp_set = Pim_core.Rp_set.single g (Pim_net.Addr.router 0) in
         let dep = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set in
         Pim_core.Router.join_local (Pim_core.Deployment.router dep 5) g;
         Pim_sim.Engine.run ~until:8. eng;
         Sys.opaque_identity dep))

(* Simulator throughput at scale: a 100-router / 40-group / 400-packet
   PIM simulation, measured end to end. *)
let bench_scale =
  Test.make ~name:"pim-100n-40g-soak"
    (Staged.stage (fun () ->
         let prng = Pim_util.Prng.create 7 in
         let topo = Pim_graph.Random_graph.generate ~prng ~nodes:100 ~degree:4. () in
         let eng = Pim_sim.Engine.create () in
         let net = Pim_sim.Net.create eng topo in
         let workloads =
           List.init 40 (fun k ->
               ( Pim_net.Group.of_index (k + 1),
                 Pim_graph.Random_graph.pick_members ~prng ~nodes:100 ~count:4,
                 Pim_util.Prng.int prng 100 ))
         in
         let rp_set =
           Pim_core.Rp_set.of_list
             (List.map
                (fun (g, members, _) -> (g, [ Pim_net.Addr.router (List.hd members) ]))
                workloads)
         in
         let dep = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set in
         List.iter
           (fun (g, members, _) ->
             List.iter
               (fun m -> Pim_core.Router.join_local (Pim_core.Deployment.router dep m) g)
               members)
           workloads;
         Pim_sim.Engine.run ~until:15. eng;
         List.iter
           (fun (g, _, source) ->
             for i = 0 to 9 do
               ignore
                 (Pim_sim.Engine.schedule_at eng
                    (15. +. float_of_int i)
                    (fun () ->
                      Pim_core.Router.send_local_data (Pim_core.Deployment.router dep source)
                        ~group:g ()))
             done)
           workloads;
         Pim_sim.Engine.run ~until:40. eng;
         Sys.opaque_identity dep))

let bench_prng =
  let prng = Pim_util.Prng.create 1 in
  Test.make ~name:"prng-int" (Staged.stage (fun () -> Sys.opaque_identity (Pim_util.Prng.int prng 1000)))

(* {1 Bechamel driver} *)

let run_benchmarks () =
  let tests =
    Test.make_grouped ~name:"pim" ~fmt:"%s/%s"
      [
        bench_fig2a;
        bench_fig2b;
        bench_fig1;
        bench_overhead_point;
        bench_failover;
        bench_failover_election;
        bench_ablation;
        bench_refresh;
        bench_groups_point;
        bench_dijkstra;
        bench_all_pairs;
        bench_event_queue;
        bench_fib_match;
        bench_join_processing;
        bench_scale;
        bench_prng;
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "================================================================@.";
  Format.printf "Bechamel timings (one Test.make per experiment id + micro)@.";
  Format.printf "================================================================@.";
  Format.printf "# %-28s %16s@." "benchmark" "time/run";
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
          else Printf.sprintf "%8.1f ns" ns
        in
        Format.printf "  %-28s %16s@." name pretty
      | _ -> Format.printf "  %-28s %16s@." name "n/a")
    rows

(* {1 JSON baseline mode}

   Bechamel's OLS estimates are great interactively but awkward to diff, so
   the JSON mode uses a deliberately simple harness: warm up, pick a
   repetition count from one calibration run, then measure wall clock and
   GC counters around the whole batch. *)

type json_result = {
  jname : string;
  runs : int;
  wall_ns_per_run : float;
  alloc_bytes_per_run : float;
  minor_words_per_run : float;
  promoted_words_per_run : float;
}

let measure_subject (name, f) =
  f ();
  (* Calibrate the repetition count for ~0.5 s of measurement. *)
  let c0 = Unix.gettimeofday () in (* pimlint: allow D2 — wall-clock measurement, not randomness *)
  f ();
  let once = Unix.gettimeofday () -. c0 in (* pimlint: allow D2 — wall-clock measurement, not randomness *)
  let runs = max 3 (min 2000 (int_of_float (0.5 /. Float.max once 1e-6))) in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in (* pimlint: allow D2 — wall-clock measurement, not randomness *)
  for _ = 1 to runs do
    f ()
  done;
  let t1 = Unix.gettimeofday () in (* pimlint: allow D2 — wall-clock measurement, not randomness *)
  let s1 = Gc.quick_stat () in
  let a1 = Gc.allocated_bytes () in
  let per x = x /. float_of_int runs in
  {
    jname = name;
    runs;
    wall_ns_per_run = per ((t1 -. t0) *. 1e9);
    alloc_bytes_per_run = per (a1 -. a0);
    minor_words_per_run = per (s1.Gc.minor_words -. s0.Gc.minor_words);
    promoted_words_per_run = per (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  }

let json_subjects () =
  let trial_prng = Pim_util.Prng.create seed in
  let fig2a_trial () =
    let topo = Pim_graph.Random_graph.generate ~prng:trial_prng ~nodes:50 ~degree:4. () in
    let members = Pim_graph.Random_graph.pick_members ~prng:trial_prng ~nodes:50 ~count:10 in
    let apsp = Pim_graph.Spt.all_pairs topo in
    let spt = Pim_graph.Center.spt_max_delay apsp ~senders:members ~receivers:members in
    let _, cbt = Pim_graph.Center.optimal apsp ~senders:members ~receivers:members in
    ignore (Sys.opaque_identity (spt, cbt))
  in
  let fig2b_network () =
    (* One network at full paper scale: 300 groups x 40 members x 32
       senders, degree 4. *)
    ignore (Sys.opaque_identity (Pim_exp.Fig2b.run ~trials:1 ~degrees:[ 4. ] ~seed ()))
  in
  let fig2a_degree_sweep () =
    ignore (Sys.opaque_identity (Pim_exp.Fig2a.run ~trials:20 ~seed ()))
  in
  let dijkstra () = ignore (Sys.opaque_identity (Pim_graph.Spt.single_source fixed_topo 0)) in
  let scratch = Pim_graph.Spt.make_scratch ~n:50 in
  let dijkstra_scratch () =
    ignore (Sys.opaque_identity (Pim_graph.Spt.single_source_into scratch fixed_topo 0))
  in
  let all_pairs () = ignore (Sys.opaque_identity (Pim_graph.Spt.all_pairs fixed_topo)) in
  let engine_events () =
    let eng = Pim_sim.Engine.create () in
    for i = 1 to 1000 do
      ignore (Pim_sim.Engine.schedule eng ~after:(float_of_int (i mod 97)) (fun () -> ()))
    done;
    Pim_sim.Engine.run eng;
    ignore (Sys.opaque_identity eng)
  in
  (* The timer wheel's design load: a million events across a wide time
     range, scheduled then drained.  The pre-wheel heap baseline spent
     ~4.5 s here; the wheel runs it in a few hundred ms. *)
  let engine_events_1m () =
    let eng = Pim_sim.Engine.create () in
    for i = 1 to 1_000_000 do
      ignore (Pim_sim.Engine.schedule eng ~after:(float_of_int (i mod 9973)) (fun () -> ()))
    done;
    Pim_sim.Engine.run eng;
    ignore (Sys.opaque_identity eng)
  in
  (* Wide-area scale points: two-level transit-stub topology (40 routers
     per transit router), static unicast routing everywhere, one PIM
     shared tree built by 8 stub members, then a short data stream — end
     to end through the batched Net layer and the timer wheel.  At 10000
     routers an all-pairs unicast RIB would not fit in memory; routes are
     built only for the routers that ask. *)
  let transit_stub ~transit () =
    let prng = Pim_util.Prng.create 7 in
    let ts =
      Pim_graph.Transit_stub.generate ~transit ~stubs_per_transit:3 ~stub_size:13
        ~backbone_delay:0.5 ~access_delay:0.5 ~prng ()
    in
    let eng = Pim_sim.Engine.create () in
    let net = Pim_sim.Net.create eng ts.Pim_graph.Transit_stub.topo in
    let g = Pim_net.Group.of_index 1 in
    let members = List.init 8 (fun _ -> Pim_graph.Transit_stub.random_stub_member ts ~prng) in
    let rp_set = Pim_core.Rp_set.single g (Pim_net.Addr.router (List.hd members)) in
    let dep = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set in
    List.iter (fun m -> Pim_core.Router.join_local (Pim_core.Deployment.router dep m) g) members;
    Pim_sim.Engine.run ~until:30. eng;
    let src = Pim_graph.Transit_stub.random_stub_member ts ~prng in
    for i = 0 to 9 do
      ignore
        (Pim_sim.Engine.schedule_at eng
           (30. +. float_of_int i)
           (fun () ->
             Pim_core.Router.send_local_data (Pim_core.Deployment.router dep src) ~group:g ()))
    done;
    Pim_sim.Engine.run ~until:80. eng;
    ignore (Sys.opaque_identity dep)
  in
  (* One full dynamic-RP failover: BSR election, C-RP adverts and hash
     mapping over a live 3x3 grid, an RP crash mid-stream, re-election
     and recovery — the whole bootstrap control plane end to end. *)
  let failover_election () =
    ignore
      (Sys.opaque_identity (Pim_exp.Failover.run_strategies ~strategies:[ "bsr" ] ~seed ()))
  in
  (* E11 workload models at wide-area scale: the full generate-and-replay
     pipeline (schedule generation, one shared 32-group deployment over
     2000 routers, windowed instruments) — the heaviest end-to-end paths
     the workload harness exercises. *)
  let workload_zap_2000n () =
    let spec =
      {
        (Pim_exp.Workload.default_spec Pim_exp.Workload.Zap) with
        Pim_exp.Workload.nodes = 2000;
        groups = 32;
        scale = 300;
        duration = 20.;
        seed;
      }
    in
    ignore (Sys.opaque_identity (Pim_exp.Workload.run spec))
  in
  let workload_flashcrowd () =
    let spec =
      {
        (Pim_exp.Workload.default_spec Pim_exp.Workload.Flashcrowd) with
        Pim_exp.Workload.nodes = 2000;
        scale = 1000;
        duration = 20.;
        seed;
      }
    in
    ignore (Sys.opaque_identity (Pim_exp.Workload.run spec))
  in
  (* The multicast side at the size perfbench's baseline-protocol zap run
     uses: MOSPF over 100 routers, 16 groups, 200 receivers.  Nearly all of
     its cost is flooding membership and computing per-router forwarding
     plans, none of it unicast routes. *)
  let workload_zap_mospf () =
    let spec =
      {
        (Pim_exp.Workload.default_spec Pim_exp.Workload.Zap) with
        Pim_exp.Workload.nodes = 100;
        groups = 16;
        scale = 200;
        duration = 60.;
        protocol = Pim_exp.Stack.Mospf;
        seed;
      }
    in
    ignore (Sys.opaque_identity (Pim_exp.Workload.run spec))
  in
  (* PIM-SM zap at perfbench's multicast size: 200 routers, 32 groups,
     2000 receivers.  Its control path (join/prune receipt, RP
     reachability, sweeps) and data hops are most of the multicast
     side's allocation. *)
  let workload_zap_200n_pimsm () =
    let spec =
      {
        (Pim_exp.Workload.default_spec Pim_exp.Workload.Zap) with
        Pim_exp.Workload.nodes = 200;
        groups = 32;
        scale = 2000;
        duration = 60.;
        protocol = Pim_exp.Stack.Pim_sm;
        seed;
      }
    in
    ignore (Sys.opaque_identity (Pim_exp.Workload.run spec))
  in
  (* The same zap spec under CBT and PIM-DM, the two protocols whose data
     path walks tree and interface state in place rather than building an
     oif list per packet. *)
  let workload_zap_cbt_dm () =
    List.iter
      (fun protocol ->
        let spec =
          {
            (Pim_exp.Workload.default_spec Pim_exp.Workload.Zap) with
            Pim_exp.Workload.nodes = 100;
            groups = 16;
            scale = 200;
            duration = 60.;
            protocol;
            seed;
          }
        in
        ignore (Sys.opaque_identity (Pim_exp.Workload.run spec)))
      [ Pim_exp.Stack.Cbt; Pim_exp.Stack.Pim_dm ]
  in
  [
    ("fig2a-trial", fig2a_trial);
    ("fig2a-degree-sweep-20", fig2a_degree_sweep);
    ("fig2b-network", fig2b_network);
    ("dijkstra-50n", dijkstra);
    ("dijkstra-50n-scratch", dijkstra_scratch);
    ("all-pairs-50n", all_pairs);
    ("engine-1k-events", engine_events);
    ("engine-1M-events", engine_events_1m);
    ("failover-election", failover_election);
    ("transit-stub-2000n", transit_stub ~transit:50);
    ("transit-stub-10000n", transit_stub ~transit:250);
    ("workload-zap-2000n", workload_zap_2000n);
    ("workload-flashcrowd", workload_flashcrowd);
    ("workload-zap-100n-mospf", workload_zap_mospf);
    ("workload-zap-100n-cbt-dm", workload_zap_cbt_dm);
    ("workload-zap-200n-pimsm", workload_zap_200n_pimsm);
  ]

let run_json path =
  let results = List.map measure_subject (json_subjects ()) in
  let json =
    Pim_util.Json.(
      Obj
        [
          ("schema", Str "pim-bench/1");
          ("seed", Int seed);
          ("ocaml", Str Sys.ocaml_version);
          ("word_size", Int Sys.word_size);
          ( "benchmarks",
            Arr
              (List.map
                 (fun r ->
                   Obj
                     [
                       ("name", Str r.jname);
                       ("runs", Int r.runs);
                       ("wall_ns_per_run", Float r.wall_ns_per_run);
                       ("alloc_bytes_per_run", Float r.alloc_bytes_per_run);
                       ("minor_words_per_run", Float r.minor_words_per_run);
                       ("promoted_words_per_run", Float r.promoted_words_per_run);
                     ])
                 results) );
        ])
  in
  Pim_util.Json.to_file path json;
  Format.printf "# wrote %s@." path;
  (* Companion metrics baseline: one deterministic end-to-end PIM scenario
     (the seed-1994 qcheck derivation), its whole metrics registry as
     pim-metrics/2 JSON.  Unlike the wall-clock numbers above this file is
     byte-identical across runs, so a diff against the committed copy
     flags any behavioural (not performance) change. *)
  let metrics_path = Filename.concat (Filename.dirname path) "METRICS_fig2.json" in
  let outcome =
    Pim_exp.Scenario.run ~metrics_file:metrics_path
      (Pim_exp.Scenario.default_spec ~seed ~member_count:6)
  in
  if not outcome.Pim_exp.Scenario.ok then
    Format.printf "# WARNING: metrics scenario violated the delivery property@.";
  Format.printf "# wrote %s@." metrics_path;
  Format.printf "# %-28s %6s %14s %16s@." "benchmark" "runs" "time/run" "alloc/run";
  List.iter
    (fun r ->
      let pretty ns =
        if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Format.printf "  %-28s %6d %14s %13.0f kB@." r.jname r.runs (pretty r.wall_ns_per_run)
        (r.alloc_bytes_per_run /. 1024.))
    results

(* {1 Regression gate}

   [--check PATH] re-measures the engine subjects, the BSR
   failover-election run, the 10000-router scale point, the 2000-router
   workloads (whose allocation is mostly unicast routes), the MOSPF
   zap workload (multicast forwarding and plan computation) and the CBT
   and PIM-DM zap workload (their in-place forwarding walks) and compares
   them against the committed baseline.  Wall clock differs across machines
   and noisy CI runners, so it only fails on a large factor — chosen so
   that reverting the timer wheel to the old heap (a ~5.8x slowdown on
   engine-1k-events) trips the gate with margin.  Allocation and promotion
   per run are deterministic and get the same tight bound: words promoted
   to the major heap are what a minor collection copies and the major GC
   then marks and sweeps, so state kept alive longer than it needs to be
   (a buffer sized for the worst case, a boxed float written into an old
   record) shows there before it shows in wall time. *)

let check_subjects =
  [
    "engine-1k-events";
    "engine-1M-events";
    "failover-election";
    "transit-stub-10000n";
    "workload-zap-2000n";
    "workload-flashcrowd";
    "workload-zap-100n-mospf";
    "workload-zap-100n-cbt-dm";
    "workload-zap-200n-pimsm";
  ]

let wall_budget = 3.0

let alloc_budget = 1.25

let run_check path =
  let base =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Pim_util.Json.of_string_exn s
  in
  let baseline name field =
    let open Pim_util.Json in
    Option.bind (member "benchmarks" base) to_list
    |> Option.value ~default:[]
    |> List.find_map (fun row ->
           match Option.bind (member "name" row) to_str with
           | Some n when n = name -> Option.bind (member field row) to_float
           | _ -> None)
  in
  let failures = ref 0 in
  Format.printf "# engine regression gate vs %s (wall x%.1f, alloc and promoted x%.2f)@." path
    wall_budget alloc_budget;
  List.iter
    (fun ((name, _) as subj) ->
      let r = measure_subject subj in
      match
        ( baseline name "wall_ns_per_run",
          baseline name "alloc_bytes_per_run",
          baseline name "promoted_words_per_run" )
      with
      | Some bw, Some ba, Some bp ->
        let wall_ok = r.wall_ns_per_run <= (wall_budget *. bw) +. 1e4 in
        (* +4 kB (512 words) grace: tiny subjects would otherwise fail on
           measurement noise from the harness itself. *)
        let alloc_ok = r.alloc_bytes_per_run <= (alloc_budget *. ba) +. 4096. in
        let promoted_ok = r.promoted_words_per_run <= (alloc_budget *. bp) +. 512. in
        let verdict ok = if ok then "ok" else "REGRESSED" in
        Format.printf "  %-24s wall %12.0f ns (baseline %12.0f) %s@." name r.wall_ns_per_run bw
          (verdict wall_ok);
        Format.printf "  %-24s alloc %11.0f B  (baseline %12.0f) %s@." name
          r.alloc_bytes_per_run ba (verdict alloc_ok);
        Format.printf "  %-24s promoted %8.0f w  (baseline %12.0f) %s@." name
          r.promoted_words_per_run bp (verdict promoted_ok);
        if not (wall_ok && alloc_ok && promoted_ok) then incr failures
      | _ ->
        Format.printf "  %-24s missing from baseline — regenerate with --json@." name;
        incr failures)
    (List.filter (fun (n, _) -> List.mem n check_subjects) (json_subjects ()));
  if !failures > 0 then begin
    Format.printf "# FAIL: %d engine benchmark(s) regressed vs %s@." !failures path;
    exit 1
  end
  else Format.printf "# ok: engine benchmarks within budget of %s@." path

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: rest ->
    let path = match rest with p :: _ -> p | [] -> "BENCH_fig2.json" in
    run_json path
  | _ :: "--check" :: rest ->
    let path = match rest with p :: _ -> p | [] -> "BENCH_fig2.json" in
    run_check path
  | _ :: [] | [] ->
    regenerate ();
    run_benchmarks ()
  | _ :: arg :: _ ->
    prerr_endline
      ("usage: main.exe [--json [PATH] | --check [PATH]]  (unknown argument: " ^ arg ^ ")");
    exit 2
