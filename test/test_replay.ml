(* Regression tests for the RP-tree/SPT switchover loss (the former
   ROADMAP open item), pinned via the scenario replay/shrink harness,
   plus unit coverage of the observability layer it is built on: typed
   events, the metrics registry, packet capture, and JSON parsing.

   History: with the qcheck exploration seed pinned to 1994, the
   "random scenario: complete, duplicate-free, drains" property never
   drew the failing region.  Exploring other seeds surfaced scenario
   seed=56517: a receiver on the far side of the RP missed the first
   packets of the steady-state window.  Replaying that scenario under
   packet capture showed the cause — packets the source sent before the
   (S,G) join chain completed exist only as RP-tree copies, and once a
   diverging router's SPT bit flipped, the literal section-3.5
   incoming-interface check dropped them on the shared iif.
   [Config.switchover_fallback] forwards those stragglers over the
   shared fallback with identity-based dedup; these tests pin both the
   failure (fallback off) and the fix (fallback on), on the full
   counterexample and on its delta-debugged minimal form. *)

module Scenario = Pim_exp.Scenario
module Event = Pim_sim.Event
module Capture = Pim_sim.Capture
module Metrics = Pim_util.Metrics
module Json = Pim_util.Json

(* The original counterexample: all six derived members. *)
let full_spec = Scenario.default_spec ~seed:56517 ~member_count:6

(* Its delta-debugged minimum (test_replay_shrink re-derives it):
   a single receiver and the shortest failing send schedule. *)
let min_spec =
  { full_spec with Scenario.members_override = Some [ 18 ]; packets = 24 }

let pre_fix spec = { spec with Scenario.switchover_fallback = false }

let test_full_counterexample_fixed () =
  let o = Scenario.run full_spec in
  Alcotest.(check bool) "delivery complete and state drains" true o.Scenario.ok;
  Alcotest.(check bool)
    "fallback path exercised (duplicates suppressed)" true
    (o.Scenario.dup_suppressed > 0)

let test_full_counterexample_pre_fix_fails () =
  let o = Scenario.run (pre_fix full_spec) in
  Alcotest.(check bool) "pre-fix behaviour loses packets" false o.Scenario.ok;
  (* The loss mode is missing copies, not duplicates or stuck state. *)
  List.iter
    (fun (_, _, copies) -> Alcotest.(check int) "copies" 0 copies)
    o.Scenario.wrong;
  Alcotest.(check int) "state still drains" 0 o.Scenario.residual_entries

let test_minimized_fixed () =
  let o = Scenario.run min_spec in
  Alcotest.(check bool) "minimized scenario passes with the fix" true o.Scenario.ok;
  Alcotest.(check int) "exactly one straggler duplicate suppressed" 1
    o.Scenario.dup_suppressed

let test_minimized_pre_fix_fails () =
  let o = Scenario.run (pre_fix min_spec) in
  Alcotest.(check bool) "minimized scenario fails pre-fix" false o.Scenario.ok

(* The shrinker must (a) be idempotent on passing specs and (b) reduce
   the failing counterexample to the pinned minimum. *)
let test_shrink () =
  let passing = Scenario.shrink full_spec in
  Alcotest.(check bool) "passing spec untouched" true (passing = full_spec);
  let s = Scenario.shrink (pre_fix full_spec) in
  Alcotest.(check (option (list int))) "members" (Some [ 18 ]) s.Scenario.members_override;
  Alcotest.(check int) "packets" 24 s.Scenario.packets

(* --- typed events ----------------------------------------------------- *)

let sg = { Event.group = "225.0.0.1"; source = Some "10.128.21.1" }
let star = { Event.group = "225.0.0.1"; source = None }

let sample_events =
  [
    Event.Join { route = star; iface = 2 };
    Event.Prune { route = sg; iface = 0 };
    Event.Graft { route = sg; iface = 1 };
    Event.Register { group = "225.0.0.1"; source = "10.128.21.1" };
    Event.Register_stop { group = "225.0.0.1"; source = "10.128.21.1" };
    Event.Spt_switch { group = "225.0.0.1"; source = "10.128.21.1" };
    Event.Assert { group = "225.0.0.1"; iface = 3; winner = 2 };
    Event.Entry_install { route = star };
    Event.Entry_expire { route = sg };
    Event.Pkt_send { src = "10.128.21.1"; group = "225.0.0.1"; iface = 1 };
    Event.Pkt_deliver { src = "10.128.21.1"; group = "225.0.0.1"; iface = -1 };
    Event.Pkt_drop { src = "10.128.21.1"; group = "225.0.0.1"; iface = 2; reason = "spt-iif" };
    Event.Candidate_rp { rp = "10.0.0.4"; priority = 16; groups = 3 };
    Event.Bsr_elected { bsr = "10.0.0.2"; priority = 2 };
    Event.Rp_mapping { group = "225.0.0.1"; rp = Some "10.0.0.4" };
    Event.Rp_mapping { group = "225.0.0.1"; rp = None };
    Event.Rp_failover { group = "225.0.0.1"; from_rp = Some "10.0.0.4"; to_rp = "10.0.0.2" };
    Event.Rp_failover { group = "225.0.0.1"; from_rp = None; to_rp = "10.0.0.2" };
    Event.Fault_injected { action = "fail-link 2 3" };
    Event.Checkpoint_digest { digest = "1396106222cf640923e9b2a5b58992f2" };
    Event.Window_roll { index = 3; t_start = 15.; t_end = 20. };
    Event.Local_member { group = "225.0.0.1"; iface = -1 };
    Event.No_rp { group = "225.0.0.1" };
    Event.Restart;
    Event.Spt_bit { group = "225.0.0.1"; source = "10.128.21.1" };
    Event.Rp_retarget { group = "225.0.0.1"; rp = "10.0.0.6" };
    Event.Join_suppressed { route = star };
    Event.Prune_override { route = sg; iface = 0 };
    Event.Rpf_change { route = sg; from_nbr = Some 3; to_nbr = None };
    Event.Rpf_change { route = star; from_nbr = None; to_nbr = Some 10 };
    Event.On_tree { group = "225.0.0.1" };
    Event.Flush { group = "225.0.0.1" };
    Event.Quit { group = "225.0.0.1" };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let j = Event.to_json ev in
      (* through the printer and parser, not just the constructors *)
      match Json.of_string (Json.to_string j) with
      | Error msg -> Alcotest.failf "reparse: %s" msg
      | Ok j' -> (
        match Event.of_json j' with
        | Error msg -> Alcotest.failf "of_json: %s" msg
        | Ok ev' ->
          Alcotest.(check bool) ("roundtrip " ^ Json.to_string j) true (ev = ev')))
    sample_events

let test_event_of_json_rejects () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok j -> (
      match Event.of_json j with
      | Ok ev -> Alcotest.failf "accepted %s as %s" s (Json.to_string (Event.to_json ev))
      | Error _ -> ())
  in
  bad {|{"type":"warp-drive"}|};
  bad {|{"type":"join","iface":2}|};
  bad {|{"type":"rp-failover","group":"225.0.0.1"}|};
  (* missing to_rp *)
  bad {|{"type":"bsr-elected","bsr":"10.0.0.2"}|};
  (* missing route / priority *)
  bad {|{"type":"rpf-change","group":"225.0.0.1","source":null,"from":"3","to":null}|};
  (* a neighbour is a node number, not a string *)
  bad {|{"iface":2}|};
  bad {|[1,2,3]|}

(* --- metrics registry ------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("node", "3") ] "pkts" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  (* same name+labels resolves to the same instrument *)
  Metrics.incr (Metrics.counter m ~labels:[ ("node", "3") ] "pkts");
  Alcotest.(check int) "counter" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 7.5;
  Metrics.set g 2.5;
  Alcotest.(check (float 0.)) "gauge keeps last" 2.5 (Metrics.gauge_value g)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  let s = Metrics.histogram_summary h in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Pim_util.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Pim_util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Pim_util.Stats.max

(* A histogram keeps exact streaming aggregates and a bounded reservoir:
   a flood of observations far beyond the reservoir capacity must still
   report exact n/mean/min/max and in-range percentiles. *)
let test_metrics_histogram_bounded () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "flood" in
  let n = 100_000 in
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" n (Metrics.histogram_count h);
  let s = Metrics.histogram_summary h in
  Alcotest.(check int) "summary n" n s.Pim_util.Stats.n;
  Alcotest.(check (float 1e-6)) "exact mean" (float_of_int (n + 1) /. 2.) s.Pim_util.Stats.mean;
  Alcotest.(check (float 1e-9)) "exact min" 1. s.Pim_util.Stats.min;
  Alcotest.(check (float 1e-9)) "exact max" (float_of_int n) s.Pim_util.Stats.max;
  (* Percentiles come from a uniform sample; they stay in range and
     ordered even though only a bounded subset was retained. *)
  Alcotest.(check bool) "p50 in range" true (s.Pim_util.Stats.p50 >= 1. && s.Pim_util.Stats.p50 <= float_of_int n);
  Alcotest.(check bool) "p50 <= p95" true (s.Pim_util.Stats.p50 <= s.Pim_util.Stats.p95);
  (* Same registry, same key, same observations: the reservoir PRNG is
     keyed, not ambient, so summaries are reproducible. *)
  let m2 = Metrics.create () in
  let h2 = Metrics.histogram m2 "flood" in
  for i = 1 to n do
    Metrics.observe h2 (float_of_int i)
  done;
  let s2 = Metrics.histogram_summary h2 in
  Alcotest.(check (float 0.)) "deterministic p50" s.Pim_util.Stats.p50 s2.Pim_util.Stats.p50;
  Alcotest.(check (float 0.)) "deterministic p95" s.Pim_util.Stats.p95 s2.Pim_util.Stats.p95

let test_metrics_type_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "same name, different type"
    (Invalid_argument "Metrics.gauge: x registered with another type") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_metrics_json_deterministic () =
  let mk () =
    let m = Metrics.create () in
    (* registration order differs; serialization order must not *)
    [ "b"; "a"; "c" ] |> List.iter (fun n -> Metrics.incr (Metrics.counter m n));
    m
  in
  let m2 = Metrics.create () in
  [ "c"; "a"; "b" ] |> List.iter (fun n -> Metrics.incr (Metrics.counter m2 n));
  Alcotest.(check string)
    "order-independent JSON"
    (Json.to_string (Metrics.to_json (mk ())))
    (Json.to_string (Metrics.to_json m2))

(* --- packet capture --------------------------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "pim_capture" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let capture_of_run spec =
  with_tmp (fun path ->
      ignore (Scenario.run ~capture_file:path spec);
      match Capture.load path with
      | Ok es -> es
      | Error msg -> Alcotest.failf "load: %s" msg)

let test_capture_roundtrip_and_filter () =
  let es = capture_of_run full_spec in
  Alcotest.(check bool) "non-empty" true (es <> []);
  (* save/load is the identity *)
  with_tmp (fun path ->
      Capture.save path es;
      match Capture.load path with
      | Error msg -> Alcotest.failf "reload: %s" msg
      | Ok es' ->
        Alcotest.(check int) "reload count" (List.length es) (List.length es');
        let a, b = Capture.diff es es' in
        Alcotest.(check bool) "reload diff empty" true (a = [] && b = []));
  (* filters compose and agree with manual counting *)
  let data = Capture.filter ~kind:"data" es in
  Alcotest.(check bool) "has data" true (data <> []);
  let n18 = Capture.filter ~node:18 ~kind:"data" ~phase:`Deliver es in
  Alcotest.(check bool) "receiver 18 got data" true (n18 <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "touches 18" true
        (e.Capture.node_a = 18 || e.Capture.node_b = 18);
      Alcotest.(check string) "kind" "data" e.Capture.kind)
    n18;
  let windowed = Capture.filter ~t_min:10. ~t_max:20. es in
  List.iter
    (fun e ->
      Alcotest.(check bool) "in window" true
        (e.Capture.time >= 10. && e.Capture.time <= 20.))
    windowed

let test_capture_diff () =
  let es = capture_of_run min_spec in
  let pre = capture_of_run (pre_fix min_spec) in
  let only_fixed, only_pre = Capture.diff es pre in
  (* The runs genuinely diverge... *)
  Alcotest.(check bool) "fixed run has extra traffic" true (only_fixed <> []);
  (* ...and diff of a capture against itself is empty. *)
  let a, b = Capture.diff pre pre in
  Alcotest.(check bool) "self diff empty" true (a = [] && b = []);
  ignore only_pre

let test_capture_deterministic () =
  let run () =
    with_tmp (fun path ->
        ignore (Scenario.run ~capture_file:path min_spec);
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check string) "same spec, byte-identical capture" (run ()) (run ())

let test_capture_load_errors () =
  (match Capture.load "/nonexistent-capture.jsonl" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "{\"t\":1}\n");
      match Capture.load path with
      | Ok _ -> Alcotest.fail "loaded a malformed file"
      | Error msg ->
        Alcotest.(check bool) "names the line" true
          (String.length msg >= 6 && String.sub msg 0 6 = "line 1"))

let () =
  Alcotest.run "replay"
    [
      ( "switchover regression",
        [
          Alcotest.test_case "full counterexample passes with fix" `Quick
            test_full_counterexample_fixed;
          Alcotest.test_case "full counterexample fails pre-fix" `Quick
            test_full_counterexample_pre_fix_fails;
          Alcotest.test_case "minimized scenario passes with fix" `Quick
            test_minimized_fixed;
          Alcotest.test_case "minimized scenario fails pre-fix" `Quick
            test_minimized_pre_fix_fails;
          Alcotest.test_case "shrinker reaches the pinned minimum" `Slow test_shrink;
        ] );
      ( "events",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "of_json rejects garbage" `Quick test_event_of_json_rejects;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
          Alcotest.test_case "histogram summary" `Quick test_metrics_histogram;
          Alcotest.test_case "histogram bounded" `Quick test_metrics_histogram_bounded;
          Alcotest.test_case "type clash rejected" `Quick test_metrics_type_clash;
          Alcotest.test_case "deterministic json" `Quick test_metrics_json_deterministic;
        ] );
      ( "capture",
        [
          Alcotest.test_case "roundtrip and filters" `Quick test_capture_roundtrip_and_filter;
          Alcotest.test_case "diff" `Quick test_capture_diff;
          Alcotest.test_case "deterministic" `Quick test_capture_deterministic;
          Alcotest.test_case "load errors" `Quick test_capture_load_errors;
        ] );
    ]
