(* The benchmark's own checks, on specs small enough for `dune runtest`:
   a traced replay simulates exactly what the entry point simulates, its
   named layers account for its wall time, and repetitions of one seed
   render byte-identical reports. *)

module W = Pim_exp.Workload

let tiny = { (W.default_spec W.Zap) with W.nodes = 60; groups = 4; scale = 40; duration = 12. }

let check_result label (r : Perfbench.Suite.result) =
  Alcotest.(check int) (label ^ ": failed") 0 r.Perfbench.Suite.failed;
  Alcotest.(check bool) (label ^ ": correct") true r.Perfbench.Suite.correct

let test_replay_matches_report () =
  List.iter
    (fun protocol ->
      let spec = { tiny with W.protocol } in
      let traced = Perfbench.Layers.zap_replay spec in
      let report = W.run spec in
      let expect = Perfbench.Layers.report_counts report in
      let got = traced.Perfbench.Layers.counts in
      let name = Pim_exp.Stack.to_string protocol in
      Alcotest.(check int) (name ^ " node_joins") expect.node_joins got.node_joins;
      Alcotest.(check int) (name ^ " traversals") expect.traversals got.traversals;
      Alcotest.(check int) (name ^ " entries_end") expect.entries_end got.entries_end)
    Pim_exp.Stack.all

let test_layers_account () =
  let r = Perfbench.Layers.zap_replay tiny in
  let share = r.Perfbench.Layers.accounted_s /. r.Perfbench.Layers.total_s in
  if share < 0.95 || share > 1.005 then
    Alcotest.failf "named layers cover %.2f%% of the traced wall time" (100. *. share)

let test_untraced_loop () =
  let w = Perfbench.Suite.zap ~name:"tiny" ~seeds:[| 1994 |] tiny [ Pim_exp.Stack.Pim_sm ] in
  let r = Perfbench.Suite.run_untraced w ~seed:0 ~seconds:0. in
  check_result "untraced" r;
  Alcotest.(check bool) "at least three samples" true (r.Perfbench.Suite.samples >= 3)

let test_traced_loop () =
  let w =
    Perfbench.Suite.both ~name:"tiny"
      (Perfbench.Suite.zap ~name:"zap" ~seeds:[| 1994 |] tiny
         [ Pim_exp.Stack.Pim_sm; Pim_exp.Stack.Mospf ])
      (Perfbench.Suite.chaos ~name:"chaos" ~seeds:[| 1994 |] ~nodes:60)
  in
  check_result "traced" (Perfbench.Suite.run_traced w ~seed:0 ~seconds:0.)

(* A report that changes between repetitions of one seed must fail. *)
let test_nondeterminism_fails () =
  let w = Perfbench.Suite.zap ~name:"tiny" ~seeds:[| 1994 |] tiny [ Pim_exp.Stack.Pim_sm ] in
  let calls = ref 0 in
  let entry seed =
    incr calls;
    let out = w.Perfbench.Suite.entry seed in
    let fingerprint = out.Perfbench.Suite.fingerprint ^ string_of_int !calls in
    { out with Perfbench.Suite.fingerprint }
  in
  let r = Perfbench.Suite.run_untraced { w with Perfbench.Suite.entry } ~seed:0 ~seconds:0. in
  Alcotest.(check bool) "repetitions after the first fail" true (r.Perfbench.Suite.failed >= 2);
  Alcotest.(check bool) "not correct" false r.Perfbench.Suite.correct

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "traced replay matches the report" `Quick test_replay_matches_report;
          Alcotest.test_case "layers account for the traced wall" `Quick test_layers_account;
          Alcotest.test_case "untraced loop is byte-identical" `Quick test_untraced_loop;
          Alcotest.test_case "traced loop checks counts" `Quick test_traced_loop;
          Alcotest.test_case "changing report fails" `Quick test_nondeterminism_fails;
        ] );
    ]
