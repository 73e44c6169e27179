(* Tests for pimlint (Pim_check): golden fixtures per rule for both
   analysis tiers (untyped Parsetree rules and the typed .cmt-based
   R1/L1-L3/T1 rules), suppression comments and stale-suppression
   detection, the tier-tagged baseline ratchet, driver exit codes and
   JSON output — and the determinism digests the linter exists to
   protect: double runs of the chaos harness and the Figure-2
   experiments must produce identical reports. *)

module Finding = Pim_check.Finding
module Suppress = Pim_check.Suppress
module Baseline = Pim_check.Baseline
module Lint = Pim_check.Lint

let fixture name = Filename.concat "lint_fixtures" name
let typed_fixture name = Filename.concat (fixture "typed") name

let typed_options =
  { Lint.default_options with tier = Lint.Typed_tier; build_root = Some "." }

let rules_of findings = List.map (fun f -> Finding.rule_id f.Finding.rule) findings

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* {1 Golden fixtures: positive, suppressed, clean per rule} *)

let check_fixture name expected () =
  let findings = Lint.lint_file (fixture name) in
  Alcotest.(check (list string)) name expected (rules_of findings)

let fixture_tests =
  [
    ("d1_bad.ml", [ "D1"; "D1" ]);
    ("d1_suppressed.ml", []);
    ("d1_clean.ml", []);
    ("d2_bad.ml", [ "D2"; "D2"; "D2" ]);
    ("d2_suppressed.ml", []);
    ("d2_clean.ml", []);
    ("h1_bad.ml", [ "H1"; "H1" ]);
    ("h1_suppressed.ml", []);
    ("h1_clean.ml", []);
    ("h2_bad.ml", [ "H2"; "H2" ]);
    ("h2_suppressed.ml", []);
    ("h2_clean.ml", []);
    ("h3_bad.ml", [ "H3" ]);
    ("h3_suppressed.ml", []);
    ("h3_clean.ml", []);
    ("h4_bad.ml", [ "H4"; "H4" ]);
    ("h4_suppressed.ml", []);
    ("h4_clean.ml", []);
    ("h5_bad.ml", [ "H5"; "H5" ]);
    ("h5_suppressed.ml", []);
    ("h5_clean.ml", []);
    (* H6 only applies to experiments, so its fixtures live under lib/exp/. *)
    ("lib/exp/h6_bad.ml", [ "H6"; "H6"; "H6" ]);
    ("lib/exp/h6_suppressed.ml", []);
    ("lib/exp/h6_clean.ml", []);
    ("lib/exp/h7_bad.ml", [ "H7"; "H7" ]);
    ("lib/exp/h7_suppressed.ml", []);
    ("lib/exp/h7_clean.ml", []);
  ]
  |> List.map (fun (name, expected) ->
         Alcotest.test_case name `Quick (check_fixture name expected))

(* Run [f lint_as], where [lint_as rel] lints fixture [name]'s text as
   if it lived at [rel] in a tree with lib/exp/ and bin/. *)
let in_tree name f =
  let source = In_channel.with_open_bin (fixture name) In_channel.input_all in
  let root = Filename.temp_dir "pimlint_scope" "" in
  let dirs = [ "lib"; Filename.concat "lib" "exp"; "bin" ] in
  List.iter (fun d -> Sys.mkdir (Filename.concat root d) 0o755) dirs;
  let lint_as rel =
    let path = Filename.concat root rel in
    Out_channel.with_open_bin path (fun oc -> output_string oc source);
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> rules_of (Lint.lint_file path))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> Sys.rmdir (Filename.concat root d)) (List.rev dirs);
      Sys.rmdir root)
    (fun () -> f lint_as)

let exp file = Filename.concat (Filename.concat "lib" "exp") file

(* H6 is scoped by path: the same hand-built deployment is fine in the
   adapter itself (lib/exp/stack.ml) and outside the experiments. *)
let test_h6_scope () =
  in_tree "lib/exp/h6_bad.ml" (fun lint_as ->
      Alcotest.(check (list string)) "another experiment" [ "H6"; "H6"; "H6" ]
        (lint_as (exp "fig9.ml"));
      Alcotest.(check (list string)) "the adapter" [] (lint_as (exp "stack.ml"));
      Alcotest.(check (list string)) "outside lib/exp" []
        (lint_as (Filename.concat "bin" "demo.ml")))

(* H7 likewise: an engine is fine in the runner (lib/exp/dsl.ml) and
   outside the experiments, but not in the adapter. *)
let test_h7_scope () =
  in_tree "lib/exp/h7_bad.ml" (fun lint_as ->
      Alcotest.(check (list string)) "another experiment" [ "H7"; "H7" ] (lint_as (exp "fig9.ml"));
      Alcotest.(check (list string)) "the adapter" [ "H7"; "H7" ] (lint_as (exp "stack.ml"));
      Alcotest.(check (list string)) "the runner" [] (lint_as (exp "dsl.ml"));
      Alcotest.(check (list string)) "outside lib/exp" []
        (lint_as (Filename.concat "bin" "demo.ml")))

(* {1 Typed-tier golden fixtures}

   The fixtures are compiled as a (warnings-off) library, so their .cmt
   files are in ./lint_fixtures/typed/.typed_fixtures.objs relative to
   the test's working directory — hence [build_root = "."]. *)

let check_typed_fixture name expected () =
  let findings = Lint.lint_paths ~options:typed_options [ typed_fixture name ] in
  Alcotest.(check (list string)) name expected (rules_of findings)

let typed_fixture_tests =
  [
    ("race_bad.ml", [ "R1"; "R1" ]);
    ("race_clean.ml", []);
    ("l1_timer_bad.ml", [ "L1"; "L1" ]);
    ("l1_timer_clean.ml", []);
    ("l2_expiry_bad.ml", [ "L2" ]);
    ("l2_expiry_suppressed.ml", []);
    ("l3_dispatch_bad.ml", [ "L3" ]);
    ("t1_bad.ml", [ "T1"; "T1"; "T1" ]);
    ("t1_shadow.ml", [ "T1" ]);
  ]
  |> List.map (fun (name, expected) ->
         Alcotest.test_case name `Quick (check_typed_fixture name expected))

(* The point of re-implementing H1 on typed ASTs: the untyped tier's
   file-level "defines compare" exemption silences every bare [compare]
   in t1_shadow.ml, missing the genuinely polymorphic one; the typed
   tier resolves each use. *)
let test_typed_exactness () =
  let untyped = Lint.lint_file (typed_fixture "t1_shadow.ml") in
  Alcotest.(check (list string)) "untyped tier exempts the whole file" []
    (rules_of untyped);
  let typed = Lint.lint_paths ~options:typed_options [ typed_fixture "t1_shadow.ml" ] in
  Alcotest.(check (list string)) "typed tier catches the real one" [ "T1" ]
    (rules_of typed)

(* {1 Suppression comments} *)

let test_suppress_scan () =
  let t =
    Suppress.scan_lines
      [
        "let x = 1";
        "(* pimlint: allow D1, H4 *)";
        "let y = Hashtbl.fold f tbl []";
        "let z = 3";
      ]
  in
  Alcotest.(check bool) "own line" true (Suppress.allows t ~line:2 Finding.D1);
  Alcotest.(check bool) "next line D1" true (Suppress.allows t ~line:3 Finding.D1);
  Alcotest.(check bool) "next line H4" true (Suppress.allows t ~line:3 Finding.H4);
  Alcotest.(check bool) "other rule" false (Suppress.allows t ~line:3 Finding.H3);
  Alcotest.(check bool) "two lines below" false (Suppress.allows t ~line:4 Finding.D1);
  Alcotest.(check bool) "unrelated line" false (Suppress.allows t ~line:1 Finding.D1)

(* A suppression whose rule no longer fires on its covered lines is
   itself reported (S1, warning severity): rotten allows silently mask
   future regressions. *)
let test_stale_suppression () =
  let path = Filename.temp_file "pimlint_stale" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "(* pimlint: allow H4 — nothing left to excuse *)\nlet x = 1\n");
      let fs = Lint.lint_file path in
      Alcotest.(check (list string)) "stale allow flagged" [ "S1" ] (rules_of fs);
      Alcotest.(check bool) "S1 is warn-level" true
        (List.for_all
           (fun f -> Finding.default_severity f.Finding.rule = Finding.Warning)
           fs));
  (* A live suppression is not flagged. *)
  let live = Lint.lint_file (fixture "h3_suppressed.ml") in
  Alcotest.(check (list string)) "live allow silent" [] (rules_of live);
  (* An other-tier allow is invisible to this tier's run: never stale. *)
  let path = Filename.temp_file "pimlint_tier" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "(* pimlint: allow T1 — typed-tier concern *)\nlet x = 1\n");
      Alcotest.(check (list string)) "typed allow not judged untyped" []
        (rules_of (Lint.lint_file path)))

(* {1 Baseline ratchet} *)

let finding rule file line =
  { Finding.rule; file; line; col = 0; message = "test" }

let test_baseline_ratchet () =
  let legacy = [ finding Finding.D1 "a.ml" 3; finding Finding.D1 "a.ml" 9 ] in
  let base = Baseline.counts legacy in
  Alcotest.(check int) "allowance" 2 (Baseline.allowance base ~rule:Finding.D1 ~file:"a.ml");
  (* Same count: everything grandfathered. *)
  let overflow, tolerated = Baseline.apply base legacy in
  Alcotest.(check int) "no overflow" 0 (List.length overflow);
  Alcotest.(check int) "all grandfathered" 2 (List.length tolerated);
  (* One extra finding of the same (rule, file): the ratchet bites. *)
  let overflow, tolerated = Baseline.apply base (finding Finding.D1 "a.ml" 20 :: legacy) in
  Alcotest.(check int) "one overflow" 1 (List.length overflow);
  Alcotest.(check int) "legacy still tolerated" 2 (List.length tolerated);
  (* A different rule in the same file is not covered. *)
  let overflow, _ = Baseline.apply base [ finding Finding.H4 "a.ml" 3 ] in
  Alcotest.(check int) "other rule overflows" 1 (List.length overflow)

let test_baseline_roundtrip () =
  let legacy = [ finding Finding.H4 "b.ml" 1; finding Finding.D2 "c.ml" 2 ] in
  let path = Filename.temp_file "pimlint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.save (Baseline.counts legacy) path;
      let reloaded = Baseline.load path in
      Alcotest.(check int) "H4 b.ml" 1 (Baseline.allowance reloaded ~rule:Finding.H4 ~file:"b.ml");
      Alcotest.(check int) "D2 c.ml" 1 (Baseline.allowance reloaded ~rule:Finding.D2 ~file:"c.ml");
      Alcotest.(check int) "absent" 0 (Baseline.allowance reloaded ~rule:Finding.D1 ~file:"b.ml"))

(* Only tier-tagged rows load: a three-field "RULE FILE COUNT" row is
   malformed. *)
let test_baseline_rejects_untagged () =
  let path = Filename.temp_file "pimlint_untagged" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "D1 a.ml 2\n");
      match Baseline.load path with
      | _ -> Alcotest.fail "loaded a three-field row"
      | exception Failure msg ->
        Alcotest.(check bool) msg true (contains msg "malformed baseline line"))

(* One baseline file serves both tiers: rows are tier-tagged, and a
   one-tier rewrite (merge_tier) must not drop the other tier's rows. *)
let test_baseline_tiers () =
  let untyped = [ finding Finding.D1 "a.ml" 3 ] in
  let typed_rows = [ finding Finding.T1 "a.ml" 5; finding Finding.L2 "b.ml" 2 ] in
  let path = Filename.temp_file "pimlint_tiers" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.save (Baseline.counts (untyped @ typed_rows)) path;
      let loaded = Baseline.load path in
      Alcotest.(check int) "untyped row" 1
        (Baseline.allowance loaded ~rule:Finding.D1 ~file:"a.ml");
      Alcotest.(check int) "typed row" 1
        (Baseline.allowance loaded ~rule:Finding.T1 ~file:"a.ml");
      (* Rewrite only the typed tier, dropping its b.ml row. *)
      let merged =
        Baseline.merge_tier ~tier:Finding.Typed ~existing:loaded
          (Baseline.counts [ finding Finding.T1 "a.ml" 5 ])
      in
      Baseline.save merged path;
      let reloaded = Baseline.load path in
      Alcotest.(check int) "untyped row survives the typed rewrite" 1
        (Baseline.allowance reloaded ~rule:Finding.D1 ~file:"a.ml");
      Alcotest.(check int) "typed row kept" 1
        (Baseline.allowance reloaded ~rule:Finding.T1 ~file:"a.ml");
      Alcotest.(check int) "dropped typed row gone" 0
        (Baseline.allowance reloaded ~rule:Finding.L2 ~file:"b.ml"))

(* {1 Driver exit codes} *)

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* A row allowing more findings than its (rule, file) has now is stale:
   the run fails until --update-baseline gives the slack up.  Only the
   active tier's rows for linted paths are judged. *)
let test_baseline_stale () =
  let base =
    Baseline.counts
      [ finding Finding.D1 "a.ml" 3; finding Finding.D1 "a.ml" 9; finding Finding.H4 "b.ml" 1 ]
  in
  let now = [ finding Finding.D1 "a.ml" 3; finding Finding.H4 "b.ml" 1 ] in
  let stale ?(tier = Finding.Untyped) ?(in_scope = fun _ -> true) findings =
    List.map
      (fun (f : Finding.t) -> (Finding.rule_id f.rule, f.file))
      (Baseline.stale base ~tier ~in_scope findings)
  in
  Alcotest.(check (list (pair string string))) "one row stale" [ ("D1", "a.ml") ] (stale now);
  Alcotest.(check (list (pair string string)))
    "a file gone stales its rows" [ ("D1", "a.ml"); ("H4", "b.ml") ] (stale []);
  Alcotest.(check (list (pair string string)))
    "exact counts are not stale" [] (stale (finding Finding.D1 "a.ml" 9 :: now));
  Alcotest.(check (list (pair string string)))
    "other tier not judged" [] (stale ~tier:Finding.Typed now);
  Alcotest.(check (list (pair string string)))
    "unlinted file not judged" [] (stale ~in_scope:(String.equal "b.ml") now);
  (* Through Lint.run: a row for a clean fixture fails the run. *)
  let path = Filename.temp_file "pimlint_stale" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "untyped D1 %s 1\n" (fixture "d1_clean.ml"));
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      let options = { Lint.default_options with baseline_path = Some path } in
      let code = Lint.run ~options ~paths:[ fixture "d1_clean.ml" ] ppf in
      Format.pp_print_flush ppf ();
      Alcotest.(check int) "stale row exits 1" 1 code;
      Alcotest.(check bool) (Buffer.contents buf) true
        (contains (Buffer.contents buf) "stale baseline row; run --update-baseline");
      Alcotest.(check int) "row outside the linted paths is not judged" 0
        (Lint.run ~options ~paths:[ fixture "d1_suppressed.ml" ] null_formatter))

let test_exit_codes () =
  let run paths = Lint.run ~paths null_formatter in
  Alcotest.(check int) "violating fixture exits 1" 1 (run [ fixture "d1_bad.ml" ]);
  Alcotest.(check int) "clean fixture exits 0" 0 (run [ fixture "d1_clean.ml" ]);
  Alcotest.(check int) "suppressed fixture exits 0" 0 (run [ fixture "h3_suppressed.ml" ])

let test_typed_exit_codes () =
  let run paths = Lint.run ~options:typed_options ~paths null_formatter in
  Alcotest.(check int) "violating typed fixture exits 1" 1
    (run [ typed_fixture "l1_timer_bad.ml" ]);
  Alcotest.(check int) "clean typed fixture exits 0" 0
    (run [ typed_fixture "race_clean.ml" ]);
  (* A source with no .cmt is an environment error, not a finding. *)
  let path = Filename.temp_file "pimlint_nocmt" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "let x = 1\n");
      Alcotest.(check int) "missing cmt exits 2" 2 (run [ path ]))

let test_json_output () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let options = { Lint.default_options with json = true } in
  let code = Lint.run ~options ~paths:[ fixture "d1_bad.ml" ] ppf in
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check int) "violations still exit 1" 1 code;
  Alcotest.(check bool) "schema tag" true (contains s {|"schema":"pimlint/1"|});
  Alcotest.(check bool) "tier tag" true (contains s {|"tier":"untyped"|});
  Alcotest.(check bool) "rule tag" true (contains s {|"rule":"D1"|});
  Alcotest.(check bool) "severity tag" true (contains s {|"severity":"error"|});
  Alcotest.(check bool) "file tag" true (contains s "d1_bad.ml")

(* {1 Determinism digests} *)

(* The linter's D-rules exist to keep seeded runs reproducible; these
   digests assert the end-to-end property on the real harnesses: the
   same seed must produce byte-identical formatted reports. *)

let test_chaos_digest () =
  let go () =
    let r = Pim_exp.Chaos.run ~nodes:12 ~receivers:3 ~events:3 ~seed:42 () in
    Format.asprintf "%a" Pim_exp.Chaos.pp_report r
  in
  let a = go () and b = go () in
  Alcotest.(check string) "chaos --seed 42 twice: identical report" a b;
  Alcotest.(check bool) "report is not empty" true (String.length a > 0)

let test_fig2a_digest () =
  let go () =
    Format.asprintf "%a" Pim_exp.Fig2a.pp_rows
      (Pim_exp.Fig2a.run ~nodes:20 ~members:5 ~trials:3 ~degrees:[ 3.; 4. ] ~seed:11 ())
  in
  Alcotest.(check string) "fig2a twice: identical report" (go ()) (go ())

let test_fig2b_digest () =
  let go () =
    Format.asprintf "%a" Pim_exp.Fig2b.pp_rows
      (Pim_exp.Fig2b.run ~nodes:20 ~groups:10 ~members:8 ~senders:4 ~trials:2
         ~degrees:[ 3.; 4. ] ~seed:11 ())
  in
  Alcotest.(check string) "fig2b twice: identical report" (go ()) (go ())

(* Same property for the observability artifacts: one scenario replay,
   all three output files (packet capture, typed trace, metrics JSON)
   byte-identical across runs of the same seed. *)
let test_capture_digest () =
  let go () =
    let tmp suffix = Filename.temp_file "pim_digest" suffix in
    let cap = tmp ".cap.jsonl" and tr = tmp ".trace.jsonl" and met = tmp ".metrics.json" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ cap; tr; met ])
      (fun () ->
        ignore
          (Pim_exp.Scenario.run ~capture_file:cap ~trace_file:tr ~metrics_file:met
             (Pim_exp.Scenario.default_spec ~seed:56517 ~member_count:6));
        List.map (fun p -> In_channel.with_open_bin p In_channel.input_all) [ cap; tr; met ])
  in
  match (go (), go ()) with
  | [ cap_a; tr_a; met_a ], [ cap_b; tr_b; met_b ] ->
    Alcotest.(check string) "capture twice: identical" cap_a cap_b;
    Alcotest.(check string) "trace twice: identical" tr_a tr_b;
    Alcotest.(check string) "metrics twice: identical" met_a met_b;
    Alcotest.(check bool) "capture not empty" true (String.length cap_a > 0)
  | _ -> assert false

let () =
  Alcotest.run "pim_lint"
    [
      ( "fixtures",
        fixture_tests
        @ [
            Alcotest.test_case "H6 path scope" `Quick test_h6_scope;
            Alcotest.test_case "H7 path scope" `Quick test_h7_scope;
          ] );
      ("typed-fixtures", typed_fixture_tests);
      ( "typed-exactness",
        [ Alcotest.test_case "shadowed compare" `Quick test_typed_exactness ] );
      ( "suppress",
        [
          Alcotest.test_case "scan and cover" `Quick test_suppress_scan;
          Alcotest.test_case "stale detection (S1)" `Quick test_stale_suppression;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "ratchet" `Quick test_baseline_ratchet;
          Alcotest.test_case "save/load roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "tier-tagged rows and merge" `Quick test_baseline_tiers;
          Alcotest.test_case "three-field row rejected" `Quick test_baseline_rejects_untagged;
          Alcotest.test_case "stale row fails" `Quick test_baseline_stale;
        ] );
      ( "driver",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "typed exit codes" `Quick test_typed_exit_codes;
          Alcotest.test_case "json output" `Quick test_json_output;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "chaos double run" `Quick test_chaos_digest;
          Alcotest.test_case "fig2a double run" `Quick test_fig2a_digest;
          Alcotest.test_case "fig2b double run" `Quick test_fig2b_digest;
          Alcotest.test_case "capture/trace/metrics double run" `Quick test_capture_digest;
        ] );
    ]
