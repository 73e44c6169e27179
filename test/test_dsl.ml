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

(* Numbers the runner cannot act on fail at parse time, naming the
   line: a step with one of them would otherwise hang the run (advance
   inf), fail inside the engine or the net without a line, or trip an
   assertion in the topology's derivation. *)
let bad_numbers =
  [
    ("advance inf", "advance inf", "finite number");
    ("advance nan", "advance nan", "finite number");
    ("at inf", "at inf heal", "finite number");
    ("at nan", "at nan send 0", "finite number");
    ("send interval=nan", "send 0 count=2 interval=nan", "finite number");
    ("send interval=inf", "send 0 count=2 interval=inf", "finite number");
    ("jitter inf", "jitter inf for=5", "finite number");
    ("jitter nan", "jitter nan for=5", "finite number");
    ("loss 1", "loss 1 for=5", "within [0, 1)");
    ("negative send interval", "send 0 count=2 interval=-1", "interval must be >= 0");
    ("negative delay-next", "delay-next 0 1 by=-0.5", "by must be >= 0");
    ("control-only burst", "loss 0.2 for=5 control-only=on", "without for=");
    ("derived members=0", "", "members must be >= 1");
  ]

let test_bad_number (name, step, needle) () =
  let text, line =
    if step = "" then ("scenario x\ntopology derived seed=1 members=0\nprotocol PIM-SM\n", 2)
    else (Printf.sprintf "scenario x\ntopology line 4\nprotocol PIM-SM\n%s\nadvance 5\n" step, 4)
  in
  match Dsl.parse text with
  | Ok _ -> Alcotest.failf "%s: parsed" name
  | Error msg ->
    Alcotest.(check bool) msg true
      (contains ~needle:(Printf.sprintf "line %d:" line) msg && contains ~needle msg)

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
        Dsl.At (5., Dsl.Send { from = Dsl.Source; count = 4; interval = 0.25; host = 1 });
        Dsl.At (2.5, Dsl.Mark "early");
        Dsl.Fail_link { a = Dsl.Node 0; b = Dsl.Node 1; down_for = Some 3. };
        Dsl.Fail_node { node = Dsl.Node 4; down_for = Some 2.5 };
        Dsl.At
          (6., Dsl.Loss { rate = 0.25; duration = Some 1.; control_only = false; seed = None });
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
          Dsl.At
            ( t,
              Dsl.Loss
                {
                  rate = 1. /. 3.;
                  duration = Some 20.23810241918493;
                  control_only = false;
                  seed = None;
                } );
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
  Alcotest.(check (list (triple int (float 0.) (list (pair int int)))))
    "per-seq tally"
    [ (0, 5., [ (3, 1) ]); (1, 6., [ (3, 1) ]) ]
    (List.map (fun (pr : Dsl.probe) -> (pr.Dsl.seq, pr.Dsl.sent_at, pr.Dsl.copies)) o.Dsl.probes)

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
      Dsl.run ~protocol:Stack.Pim_dm (parse_ok "scenario x\ntopology line 4\nfail-link 0 3\n"))

(* Both ends of a line send the same seqs, neither on a member's branch
   of the shared tree: a probe is its sender and its seq, so each window
   reaches every member exactly once, and the oracle counts each
   sender's copies on a link apart. *)
let test_two_senders () =
  let p =
    parse_ok
      {|scenario two-senders
topology line 8
rp 4
members 2 6
join members
advance 30
checkpoint
send 0 count=4 interval=0.5
send 7 count=4 interval=0.5
advance 12
assert-delivery
send 7 count=4 interval=0.5
send 0 count=4 interval=0.5
advance 12
assert-delivery
|}
  in
  List.iter
    (fun protocol ->
      let o = Dsl.run ~protocol p in
      let name = Stack.to_string protocol in
      Alcotest.(check (list pass)) (name ^ " violations") [] o.Dsl.violations;
      Alcotest.(check int) (name ^ " deliveries") 32 o.Dsl.deliveries;
      Alcotest.(check (list (triple int int (list (pair int int)))))
        (name ^ " probes by seq, then sender")
        (List.concat_map (fun seq -> [ (0, seq, [ (2, 1); (6, 1) ]); (7, seq, [ (2, 1); (6, 1) ]) ])
           (List.init 8 Fun.id))
        (List.map (fun (pr : Dsl.probe) -> (pr.Dsl.sender, pr.Dsl.seq, pr.Dsl.copies)) o.Dsl.probes))
    Stack.all

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

(* [host=H] names the sending stub host; host 1, the default, is not
   printed.  Two hosts behind one router are two sources whose packets
   share the router's sequence numbers, and every copy counts. *)
let test_send_host () =
  let p =
    parse_ok
      {|scenario hosts
topology line 3
protocol PIM-DM
members 2
source 0
join members
advance 5
send source count=2 interval=1
send source count=2 interval=1 host=2
advance 20
|}
  in
  let text = Dsl.to_string p in
  Alcotest.(check bool) "host=2 printed" true (contains ~needle:"interval=1 host=2\n" text);
  Alcotest.(check bool) "host 1 not printed" true
    (contains ~needle:"send source count=2 interval=1\n" text);
  Alcotest.(check bool) "round-trips" true (Dsl.parse text = Ok p);
  expect_parse_error ~line:3 "scenario x\ntopology line 4\nsend 0 host=0\n";
  let o = Dsl.run p in
  Alcotest.(check (list pass)) "violations" [] o.Dsl.violations;
  Alcotest.(check int) "both hosts' copies" 4 o.Dsl.deliveries;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "one copy of each seq"
    [ (0, [ (2, 1) ]); (1, [ (2, 1) ]); (2, [ (2, 1) ]); (3, [ (2, 1) ]) ]
    (List.map (fun (pr : Dsl.probe) -> (pr.Dsl.seq, pr.Dsl.copies)) o.Dsl.probes)

(* A mark records the traffic so far: 3 packets down a 3-link line are
   9 data traversals, 3 on each link. *)
let test_mark_traffic () =
  let p =
    parse_ok
      {|scenario marks
topology line 4
protocol PIM-DM
join 3
advance 5
mark before
send 0 count=3 interval=1
advance 20
mark after
|}
  in
  let o = Dsl.run p in
  let mark label = List.find (fun (m : Dsl.mark) -> m.Dsl.label = label) o.Dsl.marks in
  Alcotest.(check int) "no data before" 0 (mark "before").Dsl.data;
  Alcotest.(check int) "data" 9 (mark "after").Dsl.data;
  Alcotest.(check int) "max link data" 3 (mark "after").Dsl.max_link_data;
  Alcotest.(check int) "deliveries" 3 o.Dsl.deliveries

(* [?config] is the deployment's config: the SPT policy decides whether
   the last hop ever switches to the source's tree. *)
let test_run_config () =
  let p = parse_ok smoke in
  let switches policy =
    let sm = Pim_core.Config.(with_spt_policy policy fast) in
    let o = Dsl.run ~protocol:Stack.Pim_sm ~config:{ Stack.fast with sm } p in
    Pim_sim.Counters.total o.Dsl.counters Spt_switches
  in
  Alcotest.(check int) "Never" 0 (switches Pim_core.Config.Never);
  Alcotest.(check bool) "Immediate" true (switches Pim_core.Config.Immediate > 0)

(* A copy delivered before the last checkpoint does not clear the
   window of a blackhole: reachability holds, the blackhole check
   fires. *)
let test_checkpoint_epoch () =
  let p =
    parse_ok
      {|scenario epoch
topology line 4
protocol PIM-DM
members 3
source 0
join members
advance 5
send source count=2 interval=1
advance 10
checkpoint
assert-reachable
|}
  in
  let o = Dsl.run p in
  Alcotest.(check int) "delivered before the checkpoint" 2 o.Dsl.deliveries;
  Alcotest.(check (list string))
    "blackhole only" [ "blackhole" ]
    (List.map (fun (v : Pim_sim.Oracle.violation) -> v.Pim_sim.Oracle.invariant) o.Dsl.violations)

(* [~ctx] supplies the topology and roles: the program declares neither
   (its topology is the default two-node line). *)
let test_run_ctx () =
  let topo = Pim_graph.Classic.line 5 in
  let ctx = { Dsl.topo; nodes = 5; decl_members = [ 4 ]; source0 = Some 0; rp_nodes = [] } in
  let p =
    parse_ok
      "scenario ctx\nprotocol PIM-DM\njoin members\nadvance 5\nsend source count=2\nadvance 20\n"
  in
  let o = Dsl.run ~ctx p in
  Alcotest.(check int) "nodes" 5 o.Dsl.nodes;
  Alcotest.(check (list int)) "members" [ 4 ] o.Dsl.members;
  Alcotest.(check (option int)) "source" (Some 0) o.Dsl.source;
  Alcotest.(check int) "deliveries" 2 o.Dsl.deliveries

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
  let fixed = Dsl.run ~config:Stack.fast base in
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

(* E1's and E6's programs declare everything they run on: re-parsed
   from their text and run without a context, they give the same rows.
   Figure 1's three domains are spelled [topology three-domains]. *)
let test_experiment_programs_replay () =
  let reparse (p : Dsl.program) =
    match Dsl.parse (Dsl.to_string p) with
    | Ok p' -> p'
    | Error msg -> Alcotest.failf "%s: reparse: %s" p.Dsl.name msg
  in
  let ctx, p = Pim_exp.Overhead.plan ~nodes:20 ~degree:4. ~packets:5 ~interval:1. ~seed:3 0.2 in
  let p' = reparse p in
  Alcotest.(check bool) "overhead round-trips" true (p = p');
  List.iter
    (fun protocol ->
      let row p o = Pim_exp.Overhead.row ~fraction:0.2 ~packets:5 "row" p o in
      Alcotest.(check bool)
        (Stack.to_string protocol ^ " overhead row replays")
        true
        (row p (Dsl.run ~ctx ~protocol p) = row p' (Dsl.run ~protocol p')))
    [ Stack.Pim_sm; Stack.Mospf ];
  let a = Pim_exp.Aggregation.program ~hops:3 ~sources:2 ~packets:4 in
  let a' = reparse a in
  Alcotest.(check bool) "aggregation round-trips" true (a = a');
  let row p =
    Pim_exp.Aggregation.row ~sources:2 ~packets:4 ~aggregated:false
      (Dsl.run ~protocol:Stack.Pim_sm p)
  in
  Alcotest.(check bool) "aggregation row replays" true (row a = row a');
  Alcotest.(check int) "both sources delivered" 8 (row a').Pim_exp.Aggregation.deliveries;
  let ctx, f = Pim_exp.Fig1.plan ~packets:3 ~interval:1. in
  let f' = reparse f in
  Alcotest.(check bool) "fig1 round-trips" true (f = f');
  let row ?ctx p = Pim_exp.Fig1.row "row" (Dsl.run ?ctx ~protocol:Stack.Cbt p) in
  let r = row f' in
  Alcotest.(check bool) "fig1 row replays" true (row ~ctx f = r);
  Alcotest.(check int) "fig1 delivers to all three members" 9 r.Pim_exp.Fig1.deliveries;
  (* E2's two sweeps, the bsr row's election included: a grid, timed
     sends and a crash, under the sweep's config. *)
  let module F = Pim_exp.Failover in
  let replays what p config row =
    let p' = reparse p in
    Alcotest.(check bool) (what ^ " round-trips") true (p = p');
    let r = row p (Dsl.run ~config p) in
    Alcotest.(check bool) (what ^ " row replays") true (r = row p' (Dsl.run ~config p'));
    r
  in
  List.iter
    (fun (rp_timeout, p) ->
      let r = replays p.Dsl.name p (F.config ~rp_timeout) (F.row ~strategy:"static" ~rp_timeout) in
      Alcotest.(check bool) "failover delivers after the crash" true (r.F.delivered_after > 0))
    (F.plans ~timeouts:[ 5. ] ~seed:1 ());
  List.iter
    (fun (strategy, p) ->
      let r = replays p.Dsl.name p (F.config ~rp_timeout:5.) (F.row ~strategy ~rp_timeout:5.) in
      Alcotest.(check bool) (strategy ^ " fails over") true (r.F.failovers >= 1))
    (F.strategy_plans ~strategies:[ "static"; "bsr" ] ~seed:1 ());
  (* E8: a whole-run control-only loss from the program's seed. *)
  let ctx, l = Pim_exp.Loss.plan ~seed:4 ~packets:5 0.25 in
  let l' = reparse l in
  Alcotest.(check bool) "loss round-trips" true (l = l');
  List.iter
    (fun protocol ->
      let row ?ctx p =
        Pim_exp.Loss.row ~loss:0.25 ~packets:5 p (Dsl.run ?ctx ~protocol ~config:Stack.fast p)
      in
      let r = row ~ctx l in
      Alcotest.(check bool) (Stack.to_string protocol ^ " loss row replays") true (r = row l');
      Alcotest.(check bool) "control frames dropped" true (r.Pim_exp.Loss.control_dropped > 0))
    [ Stack.Pim_sm; Stack.Cbt ];
  (* E3: four members that send, on a declared random topology; E4: a
     line with timed marks that read the state entries.  Every node is
     a literal. *)
  let module A = Pim_exp.Ablation in
  let literal (p : Dsl.program) =
    let rec nodes = function
      | Dsl.Join rs | Dsl.Leave rs -> rs
      | Dsl.Send { from; _ } -> [ from ]
      | Dsl.At (_, s) -> nodes s
      | _ -> []
    in
    List.for_all (function Dsl.Node _ -> true | _ -> false) (List.concat_map nodes p.Dsl.steps)
  in
  let e3 = A.plan_policy ~nodes:20 ~seed:2 () in
  let e3' = reparse e3 in
  Alcotest.(check bool) "E3 round-trips" true (e3 = e3');
  Alcotest.(check bool) "E3 on a random topology, literal nodes" true
    ((match e3'.Dsl.topology with Dsl.Random _ -> true | _ -> false) && literal e3');
  let rows = A.run_spt_policy ~nodes:20 ~seed:2 () in
  Alcotest.(check bool) "E3 rows replay" true (rows = A.replay_policy e3');
  Alcotest.(check bool) "E3 delivers" true (List.for_all (fun (r : A.policy_row) -> r.A.deliveries > 0) rows);
  List.iter2
    (fun period r ->
      let e4' = reparse (A.plan_refresh period) in
      Alcotest.(check bool) "E4 on a line of six, literal nodes" true
        (e4'.Dsl.topology = Dsl.Line 6 && literal e4');
      Alcotest.(check bool) "E4 row replays" true (r = A.replay_refresh period e4');
      Alcotest.(check bool) "E4 state drains" true (Float.is_finite r.A.cleanup_time))
    [ 2.; 8. ]
    (A.run_refresh ~periods:[ 2.; 8. ] ~seed:1 ())

(* A declared role past the last node is an input error naming the node,
   both when the context is resolved ([scn check]) and when the program
   runs ([scn run]). *)
let role_outside directive () =
  let p =
    parse_ok
      (Printf.sprintf "scenario x\ntopology line 3\nprotocol PIM-SM\n%s\njoin 1\nadvance 5\n"
         directive)
  in
  let expect what f =
    match f () with
    | () -> Alcotest.failf "%s: %s accepted" directive what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (contains ~needle:"outside topology (3 nodes)" msg
        && contains ~needle:(List.nth (String.split_on_char ' ' directive) 0 ^ ": node") msg)
  in
  expect "context" (fun () -> ignore (Dsl.context p));
  expect "run" (fun () -> ignore (Dsl.run p))

(* [pimsim trace record]'s default scenario is committed the same way. *)
let test_trace_record_reproducer_pinned () =
  Alcotest.(check string) "examples/scenarios/trace-record-56517.scn"
    (Dsl.to_string
       (Pim_exp.Scenario.program (Pim_exp.Scenario.default_spec ~seed:56517 ~member_count:6)))
    (slurp "../examples/scenarios/trace-record-56517.scn")

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
          Alcotest.test_case "two senders" `Quick test_two_senders;
          Alcotest.test_case "smoke scenario on all five stacks" `Quick test_runs_on_every_stack;
          Alcotest.test_case "assertion failure detected" `Quick test_assertion_failure_detected;
          Alcotest.test_case "replay is byte-identical" `Quick test_replay_byte_identical;
          Alcotest.test_case "timed steps fire at their time" `Quick test_timed_run;
          Alcotest.test_case "timed step after the last advance runs" `Quick
            test_timed_step_after_last_advance;
          Alcotest.test_case "MOSPF membership sync" `Quick test_mospf_membership_sync;
          Alcotest.test_case "send from a second host" `Quick test_send_host;
          Alcotest.test_case "marks record traffic" `Quick test_mark_traffic;
          Alcotest.test_case "config sets the SPT policy" `Quick test_run_config;
          Alcotest.test_case "checkpoint starts a delivery epoch" `Quick test_checkpoint_epoch;
          Alcotest.test_case "runs on the given context" `Quick test_run_ctx;
          Alcotest.test_case "members outside the topology" `Quick (role_outside "members 1 5");
          Alcotest.test_case "source outside the topology" `Quick (role_outside "source 9");
          Alcotest.test_case "rp outside the topology" `Quick (role_outside "rp 7");
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
          Alcotest.test_case "trace record reproducer pinned" `Quick
            test_trace_record_reproducer_pinned;
        ] );
      ( "bad numbers",
        List.map
          (fun ((name, _, _) as case) -> Alcotest.test_case name `Quick (test_bad_number case))
          bad_numbers );
      ( "experiments",
        [ Alcotest.test_case "E1 and E6 programs replay" `Quick test_experiment_programs_replay ] );
      ( "stack",
        [ Alcotest.test_case "create_many needs an RP" `Quick test_create_many_needs_rp ] );
    ]
