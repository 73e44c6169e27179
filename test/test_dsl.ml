(* Scenario-DSL and explorer tests: parser round-trips and error
   reporting, semantic validation at run time, one smoke scenario across
   all five protocol stacks, assertion-failure detection, byte-identical
   replay determinism, a clean bounded-search smoke, and the headline
   acceptance check — the explorer rediscovering the RP-tree/SPT
   switchover loss from the divergence base scenario with the fallback
   fix disabled, then shrinking it to a minimal, still-failing program. *)

module Dsl = Pim_exp.Dsl
module Explore = Pim_exp.Explore
module Stack = Pim_exp.Stack
module Chaos = Pim_exp.Chaos

let parse_ok text =
  match Dsl.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse: %s" msg

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* {2 Parser} *)

(* Every directive and step form the grammar offers, in one program. *)
let kitchen_sink =
  {|# exhaustive syntax exercise
scenario kitchen-sink
topology line 6
protocol PIM-SM
rp 3 4
members 0 5
source 2
config switchover-fallback=off

join members
advance 5
send source count=3 interval=0.25
fail-link 0 1
heal-link 0 1
fail-node 4
restart 4
partition 5
heal
drop-next 1 2
dup-next 2 3
delay-next 3 4 by=1.5
checkpoint
assert-delivery
assert-no-loops
assert-mroute 3 count>=1
assert-mroute rp count<=9
assert-mroute 0 count=0
assert-mroute 3 contains=iif
leave members
advance 120
assert-drained
|}

let test_parse_roundtrip () =
  let p = parse_ok kitchen_sink in
  Alcotest.(check string) "name" "kitchen-sink" p.Dsl.name;
  Alcotest.(check bool) "topology" true (p.Dsl.topology = Dsl.Line 6);
  Alcotest.(check bool) "protocol" true (p.Dsl.protocol = Some Stack.Pim_sm);
  Alcotest.(check (list int)) "rp list ordered" [ 3; 4 ] p.Dsl.rp;
  Alcotest.(check (option bool)) "fallback directive" (Some false) p.Dsl.switchover_fallback;
  Alcotest.(check int) "all steps survived" 22 (List.length p.Dsl.steps);
  (* The canonical rendering re-parses to the same program. *)
  match Dsl.parse (Dsl.to_string p) with
  | Error msg -> Alcotest.failf "reparse: %s" msg
  | Ok p' -> Alcotest.(check bool) "to_string round-trips" true (p = p')

let test_parse_derived_and_random () =
  let p = parse_ok "scenario d\ntopology derived seed=56517 members=6\n" in
  Alcotest.(check bool) "derived spec" true
    (p.Dsl.topology = Dsl.Derived { seed = 56517; member_count = 6 });
  let r = parse_ok "scenario r\ntopology random nodes=16 degree=3.5 seed=7\n" in
  (match r.Dsl.topology with
  | Dsl.Random { nodes; seed; _ } ->
    Alcotest.(check int) "nodes" 16 nodes;
    Alcotest.(check int) "seed" 7 seed
  | _ -> Alcotest.fail "expected random topology");
  (* Both render back through the canonical printer. *)
  Alcotest.(check bool) "derived round-trips" true (Dsl.parse (Dsl.to_string p) = Ok p);
  Alcotest.(check bool) "random round-trips" true (Dsl.parse (Dsl.to_string r) = Ok r)

let expect_parse_error ~line text =
  match Dsl.parse text with
  | Ok p -> Alcotest.failf "parsed bad text as %s" p.Dsl.name
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names line %d: %s" line msg)
      true
      (contains ~needle:(Printf.sprintf "line %d" line) msg)

let test_parse_errors_name_the_line () =
  expect_parse_error ~line:3 "scenario x\ntopology line 4\nfrobnicate\n";
  expect_parse_error ~line:2 "scenario x\ntopology moebius 4\n";
  expect_parse_error ~line:3 "scenario x\ntopology line 4\nsend 0 count=many\n";
  expect_parse_error ~line:3 "scenario x\ntopology line 4\ndelay-next 0 1\n";
  expect_parse_error ~line:3 "scenario x\ntopology line 4\nassert-mroute 0 count>9\n"

(* The additions the chaos timeline needs: a transit-stub topology, a
   group, timed steps, composite outages, bursts, marks and the
   at-least-once reachability check. *)
let timed_text =
  {|scenario timed
topology transit-stub nodes=40 seed=3
protocol PIM-SM
group 9
rp 4
members 10 20
source 30

join members
at 5 send source count=4 interval=0.25
at 2.5 mark early
fail-link 0 1 for=3
fail-node 4 for=2.5
at 6 loss 0.25 for=1
at 6 jitter 0.5 for=1
advance 10
at 12 assert-reachable
mark late
|}

let test_parse_timed_steps () =
  let p = parse_ok timed_text in
  Alcotest.(check int) "group" 9 p.Dsl.group;
  Alcotest.(check bool) "transit-stub" true
    (p.Dsl.topology = Dsl.Transit_stub { nodes = 40; seed = 3 });
  Alcotest.(check bool) "steps" true
    (List.tl p.Dsl.steps
    = [
        Dsl.At (5., Dsl.Send { from = Dsl.Source; count = 4; interval = 0.25 });
        Dsl.At (2.5, Dsl.Mark "early");
        Dsl.Fail_link { a = Dsl.Node 0; b = Dsl.Node 1; down_for = Some 3. };
        Dsl.Fail_node { node = Dsl.Node 4; down_for = Some 2.5 };
        Dsl.At (6., Dsl.Loss { rate = 0.25; duration = 1. });
        Dsl.At (6., Dsl.Jitter { amplitude = 0.5; duration = 1. });
        Dsl.Advance 10.;
        Dsl.At (12., Dsl.Assert_reachable);
        Dsl.Mark "late";
      ]);
  Alcotest.(check bool) "round-trips" true (Dsl.parse (Dsl.to_string p) = Ok p);
  (* The default group is not printed, so older programs print as before. *)
  let line = parse_ok "scenario l\ntopology line 3\ngroup 5\nadvance 120\n" in
  Alcotest.(check bool) "no group line" false (contains ~needle:"group" (Dsl.to_string line));
  Alcotest.(check bool) "short decimals as %g" true
    (contains ~needle:"advance 120\n" (Dsl.to_string line))

(* Computed times need more digits than %g gives; they still read back
   as the same floats. *)
let test_exact_numbers () =
  let t = 0.1 +. 0.2 in
  let p =
    {
      (parse_ok "scenario n\ntopology line 3\n") with
      Dsl.steps =
        [
          Dsl.At (t, Dsl.Loss { rate = 1. /. 3.; duration = 20.23810241918493 });
          Dsl.Advance (t *. 7.);
        ];
    }
  in
  Alcotest.(check bool) "printed in full" true
    (contains ~needle:"at 0.30000000000000004 loss" (Dsl.to_string p));
  Alcotest.(check bool) "round-trips" true (Dsl.parse (Dsl.to_string p) = Ok p)

let test_timed_parse_errors () =
  let base = "scenario x\ntopology line 4\n" in
  expect_parse_error ~line:3 (base ^ "at 3 advance 1\n");
  expect_parse_error ~line:3 (base ^ "at 1 at 2 heal\n");
  expect_parse_error ~line:4 (base ^ "advance 5\nat 2 join 1\n");
  expect_parse_error ~line:3 (base ^ "loss 2 for=1\n");
  expect_parse_error ~line:3 (base ^ "fail-link 0 1 for=0\n");
  expect_parse_error ~line:3 (base ^ "jitter 1\n")

(* [at T send] schedules its packets from T when the runner reaches it;
   other timed steps fire at T, after untimed steps at the cursor. *)
let test_timed_run () =
  let p =
    parse_ok
      {|scenario at
topology line 4
protocol PIM-DM
members 3
source 0
join members
at 5 send source count=2 interval=1
at 1 mark one
mark zero
advance 10
mark ten
at 10 assert-reachable
advance 1
|}
  in
  let o = Dsl.run p in
  Alcotest.(check (list pass)) "violations" [] o.Dsl.violations;
  Alcotest.(check (list (pair string (float 0.))))
    "marks in firing order"
    [ ("zero", 0.); ("one", 1.); ("ten", 10.) ]
    (List.map (fun (m : Dsl.mark) -> (m.Dsl.label, m.Dsl.at)) o.Dsl.marks);
  Alcotest.(check (list (triple int (float 0.) (list int))))
    "per-seq tally"
    [ (0, 5., [ 3 ]); (1, 6., [ 3 ]) ]
    (List.map
       (fun (pr : Dsl.probe) -> (pr.Dsl.seq, pr.Dsl.sent_at, pr.Dsl.received_by))
       o.Dsl.probes)

(* A step timed after the last advance and after the last send's
   delivery window still runs: a failing assertion there is reported. *)
let test_timed_step_after_last_advance () =
  let p =
    parse_ok
      {|scenario late
topology line 8
protocol PIM-SM
rp 4
members 0 2
source 7
join members
send source count=2 interval=1
advance 20
at 50 mark late
at 50 assert-mroute 0 count>=99
|}
  in
  let o = Dsl.run p in
  Alcotest.(check (list (pair string (float 0.))))
    "mark fired" [ ("late", 50.) ]
    (List.map (fun (m : Dsl.mark) -> (m.Dsl.label, m.Dsl.at)) o.Dsl.marks);
  Alcotest.(check (list string))
    "violation recorded" [ "mroute" ]
    (List.map (fun (v : Pim_sim.Oracle.violation) -> v.Pim_sim.Oracle.invariant) o.Dsl.violations)

(* MOSPF's membership-sync runs as one of the stack's state checks: a
   router cut off while a member joins never learns of it. *)
let test_mospf_membership_sync () =
  let p =
    parse_ok
      {|scenario sync
topology line 4
protocol MOSPF
partition 3
join 0
advance 5
assert-no-loops
|}
  in
  let o = Dsl.run p in
  Alcotest.(check (list (pair string string)))
    "router 3 misses member 0"
    [ ("membership-sync", "router 3 does not know member 0 of 225.0.0.5") ]
    (List.map
       (fun (v : Pim_sim.Oracle.violation) -> (v.Pim_sim.Oracle.invariant, v.Pim_sim.Oracle.detail))
       o.Dsl.violations)

(* {2 Semantic validation at run time} *)

let expect_invalid f =
  match f () with
  | (_ : Dsl.outcome) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_run_semantic_errors () =
  (* No protocol anywhere. *)
  expect_invalid (fun () -> Dsl.run (parse_ok "scenario x\ntopology line 4\nadvance 1\n"));
  (* Node outside the topology. *)
  expect_invalid (fun () ->
      Dsl.run ~protocol:Stack.Pim_dm (parse_ok "scenario x\ntopology line 4\njoin 9\n"));
  (* fail-link between unconnected endpoints. *)
  expect_invalid (fun () ->
      Dsl.run ~protocol:Stack.Pim_dm (parse_ok "scenario x\ntopology line 4\nfail-link 0 3\n"));
  (* Two distinct sending nodes. *)
  expect_invalid (fun () ->
      Dsl.run ~protocol:Stack.Pim_dm
        (parse_ok "scenario x\ntopology line 4\nsend 0 count=1\nsend 1 count=1\n"))

(* {2 Execution across the stacks} *)

(* The source sits behind the RP so neither the source's node nor the RP
   lies on a member's shared-tree branch — a source on that path would
   legitimately deliver probe 0 twice (native copy plus the register
   decapsulation, before the register-stop lands). *)
let smoke =
  {|scenario smoke
topology line 8
rp 4
members 0 2
source 7
join members
advance 30
checkpoint
send source count=4 interval=0.5
advance 12
assert-delivery
assert-no-loops
leave members
advance 200
assert-drained
|}

let test_runs_on_every_stack () =
  let p = parse_ok smoke in
  List.iter
    (fun protocol ->
      let o = Dsl.run ~protocol p in
      let name = Stack.to_string protocol in
      Alcotest.(check (list pass)) (name ^ " violations") [] o.Dsl.violations;
      Alcotest.(check bool) (name ^ " ok") true o.Dsl.ok;
      (* 4 packets to 2 members, exactly once. *)
      Alcotest.(check int) (name ^ " deliveries") 8 o.Dsl.deliveries;
      Alcotest.(check int) (name ^ " duplicates") 0 o.Dsl.duplicates;
      Alcotest.(check int) (name ^ " one checkpoint digest") 1 (List.length o.Dsl.digests))
    Stack.all

let test_assertion_failure_detected () =
  let p =
    parse_ok
      {|scenario wishful
topology line 8
rp 4
members 0 2
source 7
join members
advance 30
assert-mroute 0 count>=99
|}
  in
  let o = Dsl.run ~protocol:Stack.Pim_sm p in
  Alcotest.(check bool) "violation recorded" false o.Dsl.ok;
  match o.Dsl.violations with
  | v :: _ -> Alcotest.(check string) "invariant" "mroute" v.Pim_sim.Oracle.invariant
  | [] -> Alcotest.fail "no violation recorded"

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_replay_byte_identical () =
  let p = parse_ok smoke in
  let files () =
    let t = Filename.temp_file "dsl" ".trace.jsonl" in
    let c = Filename.temp_file "dsl" ".capture.jsonl" in
    (t, c)
  in
  let t1, c1 = files () and t2, c2 = files () in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ t1; c1; t2; c2 ])
    (fun () ->
      let o1 = Dsl.run ~protocol:Stack.Pim_sm ~trace_file:t1 ~capture_file:c1 p in
      let o2 = Dsl.run ~protocol:Stack.Pim_sm ~trace_file:t2 ~capture_file:c2 p in
      Alcotest.(check (list string)) "digests identical" o1.Dsl.digests o2.Dsl.digests;
      Alcotest.(check bool) "trace non-empty" true (String.length (slurp t1) > 0);
      Alcotest.(check string) "trace byte-identical" (slurp t1) (slurp t2);
      Alcotest.(check string) "capture byte-identical" (slurp c1) (slurp c2))

(* {2 Explorer} *)

let explore_base =
  {|scenario explore-base
topology line 8
rp 4
members 0 2
source 7
join members
advance 30
|}

(* An unreadable file is a parse error carrying the system's reason, not
   an exception; the path is left for the caller to print. *)
let test_parse_file_unreadable () =
  match Dsl.parse_file "no-such-dir/missing.scn" with
  | Ok _ -> Alcotest.fail "parsed a missing file"
  | Error msg -> Alcotest.(check string) "reason only" "No such file or directory" msg

let test_explore_rejects_bad_bounds () =
  let base = parse_ok explore_base in
  let explore ?depth ?budget ?probes () =
    ignore (Explore.run ~base ~protocol:Stack.Pim_sm ?depth ?budget ?probes ())
  in
  Alcotest.check_raises "depth"
    (Invalid_argument "Explore.run: depth must be >= 0 (got -1)") (explore ~depth:(-1));
  Alcotest.check_raises "budget"
    (Invalid_argument "Explore.run: budget must be >= 1 (got 0)") (explore ~budget:0);
  Alcotest.check_raises "probes"
    (Invalid_argument "Explore.run: probes must be >= 1 (got -1)") (explore ~probes:(-1))

let test_explore_clean_smoke () =
  let base = parse_ok explore_base in
  let r = Explore.run ~base ~protocol:Stack.Pim_sm ~depth:1 ~budget:20 () in
  Alcotest.(check bool) "no violation on a healthy stack" true (r.Explore.found = None);
  Alcotest.(check bool) "explored past the root" true (r.Explore.runs > 1);
  Alcotest.(check bool) "digests collected" true (r.Explore.unique_states >= 1);
  (* The alphabet is deterministic: roles on the line give both link
     faults, the RP crash, the isolation, two leaves and one join. *)
  let ctx = Dsl.context base in
  let labels = List.map (fun a -> a.Explore.label) (Explore.alphabet ~ctx ()) in
  Alcotest.(check (list string)) "alphabet"
    [
      "fhr-link 7-6";
      "lhr-link 0-1";
      "lhr-link 2-1";
      "rp-crash 4";
      "isolate 0";
      "leave 0";
      "leave 2";
      "join 1";
    ]
    labels

(* The acceptance scenario: the divergence base encodes the warm-up
   window that arms the data-driven SPT switchover (around seq 14-18)
   and asserts the window overlapping the transition's tail; with the
   shared fallback disabled the explorer must rediscover the historical
   loss without needing any perturbation (depth 0), and the shrunk
   program must still fail — deterministically. *)
let divergence_base =
  {|scenario rpt-spt-divergence
topology derived seed=56517 members=6
protocol PIM-SM
join members
advance 10
send source count=20 interval=0.5
advance 10
checkpoint
send source count=10 interval=0.5
advance 29
assert-delivery
|}

let test_explore_rediscovers_switchover_loss () =
  let base = parse_ok divergence_base in
  (* The discriminator: the very program the explorer asserts is clean
     with the shared-fallback fix on. *)
  let fixed = Dsl.run ~switchover_fallback:true base in
  Alcotest.(check (list pass)) "fallback on: base clean" [] fixed.Dsl.violations;
  let r =
    Explore.run ~base ~protocol:Stack.Pim_sm ~switchover_fallback:false ~depth:1 ~budget:10 ()
  in
  match r.Explore.found with
  | None -> Alcotest.fail "explorer missed the switchover loss"
  | Some f ->
    Alcotest.(check int) "found without perturbations" 0 f.Explore.depth;
    Alcotest.(check int) "found on the first run" 1 r.Explore.runs;
    let shrunk = f.Explore.shrunk in
    Alcotest.(check bool) "shrunk program still fails" false f.Explore.outcome.Dsl.ok;
    (* The emitted counterexample embeds what reproduces it standalone. *)
    Alcotest.(check (option bool)) "fallback pinned off" (Some false)
      shrunk.Dsl.switchover_fallback;
    Alcotest.(check bool) "protocol pinned" true (shrunk.Dsl.protocol = Some Stack.Pim_sm);
    (* The .scn text round-trips and replays to the identical outcome. *)
    let reparsed =
      match Dsl.parse (Dsl.to_string shrunk) with
      | Ok p -> p
      | Error msg -> Alcotest.failf "shrunk reparse: %s" msg
    in
    let o1 = Dsl.run reparsed in
    let o2 = Dsl.run reparsed in
    Alcotest.(check bool) "replay fails" false o1.Dsl.ok;
    Alcotest.(check (list string)) "replay digests deterministic" o1.Dsl.digests o2.Dsl.digests;
    Alcotest.(check int) "replay deliveries deterministic" o1.Dsl.deliveries o2.Dsl.deliveries

(* {2 Chaos protocol filter (satellite)} *)

(* Every chaos run is a program: it prints and re-parses exactly, and
   replaying the re-parsed text gives the report's row. *)
let test_chaos_programs_round_trip () =
  List.iter
    (fun (seed, topology, fault, rp_strategy) ->
      let nodes = match topology with `Random -> None | `Transit_stub -> Some 120 in
      let report = Chaos.run ?nodes ~topology ~fault ~rp_strategy ~seed () in
      let _, _, program = Chaos.plan ?nodes ~topology ~fault ~rp_strategy ~seed () in
      List.iter
        (fun (r : Chaos.row) ->
          let p = program (Option.get (Stack.of_string r.Chaos.protocol)) in
          let what = Printf.sprintf "%s %s" p.Dsl.name rp_strategy in
          let p' =
            match Dsl.parse (Dsl.to_string p) with
            | Ok p' -> p'
            | Error msg -> Alcotest.failf "%s: reparse: %s" what msg
          in
          Alcotest.(check bool) (what ^ " round-trips") true (p = p');
          Alcotest.(check bool) (what ^ " replays to its row") true (Chaos.row p' (Dsl.run p') = r))
        report.Chaos.rows)
    (List.concat_map
       (fun seed ->
         List.concat_map
           (fun topology ->
             List.concat_map
               (fun fault -> List.map (fun st -> (seed, topology, fault, st)) [ "static"; "bsr" ])
               [ `Random; `Rp_crash ])
           [ `Random; `Transit_stub ])
       [ 1994; 42 ])

(* The committed reproducer is exactly what chaos runs, so it cannot
   drift from the harness. *)
let test_chaos_reproducer_pinned () =
  Alcotest.(check string) "examples/scenarios/chaos-seed1994-PIM-SM.scn"
    (let _, _, program = Chaos.plan ~seed:1994 () in
     Dsl.to_string (program Stack.Pim_sm))
    (slurp "../examples/scenarios/chaos-seed1994-PIM-SM.scn")

let test_chaos_rejects_unknown_protocol () =
  match Chaos.run ~nodes:12 ~receivers:2 ~events:1 ~protocols:[ "PIMX" ] ~seed:1 () with
  | (_ : Chaos.report) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names the offender: " ^ msg) true (contains ~needle:"PIMX" msg)

(* {2 Stack constructor (satellite)} *)

(* PIM-SM and CBT cannot deploy a group whose placement names no RP or
   core — an empty RP list and a missing entry both raise at
   construction — while the other stacks ignore the placement. *)
let test_create_many_needs_rp () =
  let g = Pim_net.Group.of_index 1 in
  let deploy placement protocol =
    let net = Pim_sim.Net.create (Pim_sim.Engine.create ()) (Pim_graph.Classic.line 3) in
    Stack.create_many ~placement ~groups:[ g ] ~net protocol
  in
  List.iter
    (fun protocol ->
      let name = Stack.to_string protocol in
      List.iter
        (fun (what, placement) ->
          match deploy placement protocol with
          | _ -> Alcotest.failf "%s with %s: expected Invalid_argument" name what
          | exception Invalid_argument msg ->
            Alcotest.(check bool) (what ^ " names " ^ name ^ ": " ^ msg) true
              (contains ~needle:name msg))
        [ ("an empty RP list", [ (g, []) ]); ("no placement", []) ])
    [ Stack.Pim_sm; Stack.Cbt ];
  List.iter
    (fun protocol ->
      Alcotest.(check int) (Stack.to_string protocol ^ " ignores the placement") 1
        (List.length (deploy [ (g, []) ] protocol)))
    [ Stack.Pim_dm; Stack.Dvmrp; Stack.Mospf ]

let () =
  Alcotest.run "pim_dsl"
    [
      ( "parse",
        [
          Alcotest.test_case "round-trip through to_string" `Quick test_parse_roundtrip;
          Alcotest.test_case "derived and random topologies" `Quick test_parse_derived_and_random;
          Alcotest.test_case "errors name the line" `Quick test_parse_errors_name_the_line;
          Alcotest.test_case "unreadable file is an error" `Quick test_parse_file_unreadable;
          Alcotest.test_case "timed steps and outages" `Quick test_parse_timed_steps;
          Alcotest.test_case "exact numbers" `Quick test_exact_numbers;
          Alcotest.test_case "timed step errors" `Quick test_timed_parse_errors;
        ] );
      ( "run",
        [
          Alcotest.test_case "semantic errors raise" `Quick test_run_semantic_errors;
          Alcotest.test_case "smoke scenario on all five stacks" `Quick test_runs_on_every_stack;
          Alcotest.test_case "assertion failure detected" `Quick test_assertion_failure_detected;
          Alcotest.test_case "replay is byte-identical" `Quick test_replay_byte_identical;
          Alcotest.test_case "timed steps fire at their time" `Quick test_timed_run;
          Alcotest.test_case "timed step after the last advance runs" `Quick
            test_timed_step_after_last_advance;
          Alcotest.test_case "MOSPF membership sync" `Quick test_mospf_membership_sync;
        ] );
      ( "explore",
        [
          Alcotest.test_case "clean smoke at depth 1" `Quick test_explore_clean_smoke;
          Alcotest.test_case "rejects bad bounds" `Quick test_explore_rejects_bad_bounds;
          Alcotest.test_case "rediscovers the switchover loss" `Slow
            test_explore_rediscovers_switchover_loss;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "rejects unknown protocol" `Quick test_chaos_rejects_unknown_protocol;
          Alcotest.test_case "programs round-trip and replay" `Quick
            test_chaos_programs_round_trip;
          Alcotest.test_case "reproducer pinned" `Quick test_chaos_reproducer_pinned;
        ] );
      ( "stack",
        [ Alcotest.test_case "create_many needs an RP" `Quick test_create_many_needs_rp ] );
    ]
