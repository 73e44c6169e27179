(* pimsim: regenerate every figure/table of the PIM SIGCOMM'94 paper and
   the supplementary experiments indexed in DESIGN.md. *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (runs are fully deterministic per seed)." in
  Arg.(value & opt int 1994 & info [ "seed" ] ~doc)

let json_arg =
  let doc =
    "Also write the rows plus wall-clock/allocation stats as JSON to $(docv) \
     (same schema family as BENCH_fig2.json; see EXPERIMENTS.md)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

(* Library entry points check their parameters before simulating and
   raise [Invalid_argument] on bad ones, and an output file that cannot be
   opened raises [Sys_error "<path>: <reason>"]: report either as bad
   input, [<cmd>: <message>] with exit code 2, rather than as an uncaught
   exception.  [input] names the file the parameters were read from. *)
let or_bad_input ?input cmd f =
  let fail msg =
    Format.eprintf "%s: %s@." cmd msg;
    exit 2
  in
  match f () with
  | v -> v
  | exception Invalid_argument msg ->
    fail (match input with Some path -> path ^ ": " ^ msg | None -> msg)
  | exception Sys_error msg -> fail msg

(* Run [f], and when [--json PATH] was given wrap its rows (serialized by
   [row_to_json]) in a timing envelope and write them to PATH; both under
   [or_bad_input experiment]. *)
let with_json_output ~experiment ~json ~params ~row_to_json f =
  or_bad_input experiment (fun () ->
      let t0 = Unix.gettimeofday () in (* pimlint: allow D2 — wall-clock timing envelope, not randomness *)
      let a0 = Gc.allocated_bytes () in
      let rows = f () in
      let wall_s = Unix.gettimeofday () -. t0 in (* pimlint: allow D2 — wall-clock timing envelope, not randomness *)
      let alloc = Gc.allocated_bytes () -. a0 in
      Option.iter
        (fun path ->
          Pim_util.Json.(
            to_file path
              (Obj
                 [
                   ("schema", Str "pim-exp/1");
                   ("experiment", Str experiment);
                   ("params", Obj params);
                   ("wall_s", Float wall_s);
                   ("alloc_bytes", Float alloc);
                   ("rows", Arr (List.map row_to_json rows));
                 ]));
          Format.eprintf "# wrote %s (%.3f s)@." path wall_s)
        json;
      rows)

let trials_arg default =
  let doc = "Random networks per node degree." in
  Arg.(value & opt int default & info [ "trials" ] ~doc)

let nodes_arg =
  let doc = "Routers per random network." in
  Arg.(value & opt int 50 & info [ "nodes" ] ~doc)

let domains_arg =
  let doc =
    "Fan trials across $(docv) OCaml domains.  Results are identical for any \
     value (each trial has its own PRNG stream); only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let fig2a_cmd =
  let run seed trials nodes members domains json =
    let row_to_json (r : Pim_exp.Fig2a.row) =
      Pim_util.Json.(
        Obj
          [
            ("degree", Float r.degree);
            ("mean_ratio", Float r.mean_ratio);
            ("stddev", Float r.stddev);
            ("min_ratio", Float r.min_ratio);
            ("max_ratio", Float r.max_ratio);
            ("trials", Int r.trials);
          ])
    in
    let params =
      Pim_util.Json.
        [ ("seed", Int seed); ("trials", Int trials); ("nodes", Int nodes); ("members", Int members) ]
    in
    let rows =
      with_json_output ~experiment:"fig2a" ~json ~params ~row_to_json (fun () ->
          Pim_exp.Fig2a.run ~nodes ~members ~trials ~domains ~seed ())
    in
    Format.printf "%a" Pim_exp.Fig2a.pp_rows rows
  in
  let members =
    Arg.(value & opt int 10 & info [ "members" ] ~doc:"Group size.")
  in
  Cmd.v
    (Cmd.info "fig2a" ~doc:"Figure 2(a): CBT/SPT maximum-delay ratio vs node degree.")
    Term.(const run $ seed_arg $ trials_arg 500 $ nodes_arg $ members $ domains_arg $ json_arg)

let fig2b_cmd =
  let run seed trials nodes groups members senders json =
    let row_to_json (r : Pim_exp.Fig2b.row) =
      Pim_util.Json.(
        Obj
          [
            ("degree", Float r.degree);
            ("spt_max_flows", Float r.spt_max_flows);
            ("cbt_max_flows", Float r.cbt_max_flows);
            ("spt_stddev", Float r.spt_stddev);
            ("cbt_stddev", Float r.cbt_stddev);
            ("trials", Int r.trials);
          ])
    in
    let params =
      Pim_util.Json.
        [
          ("seed", Int seed);
          ("trials", Int trials);
          ("nodes", Int nodes);
          ("groups", Int groups);
          ("members", Int members);
          ("senders", Int senders);
        ]
    in
    let rows =
      with_json_output ~experiment:"fig2b" ~json ~params ~row_to_json (fun () ->
          Pim_exp.Fig2b.run ~nodes ~groups ~members ~senders ~trials ~seed ())
    in
    Format.printf "%a" Pim_exp.Fig2b.pp_rows rows
  in
  let groups = Arg.(value & opt int 300 & info [ "groups" ] ~doc:"Active groups per network.") in
  let members = Arg.(value & opt int 40 & info [ "members" ] ~doc:"Members per group.") in
  let senders = Arg.(value & opt int 32 & info [ "senders" ] ~doc:"Senders per group (subset of members).") in
  Cmd.v
    (Cmd.info "fig2b" ~doc:"Figure 2(b): maximum traffic flows on any link, SPT vs center-based tree.")
    Term.(const run $ seed_arg $ trials_arg 30 $ nodes_arg $ groups $ members $ senders $ json_arg)

let fig1_cmd =
  let run packets =
    let rows = or_bad_input "fig1" (fun () -> Pim_exp.Fig1.run ~packets ()) in
    Format.printf "%a" Pim_exp.Fig1.pp_results rows
  in
  let packets = Arg.(value & opt int 40 & info [ "packets" ] ~doc:"Data packets to send.") in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Figure 1: three-domain scenario under DVMRP, PIM-DM, PIM-SM and CBT.")
    Term.(const run $ packets)

let overhead_cmd =
  let run seed nodes packets =
    let rows = or_bad_input "overhead" (fun () -> Pim_exp.Overhead.run ~nodes ~packets ~seed ()) in
    Format.printf "%a" Pim_exp.Overhead.pp_rows rows
  in
  let packets = Arg.(value & opt int 30 & info [ "packets" ] ~doc:"Data packets to send.") in
  Cmd.v
    (Cmd.info "overhead" ~doc:"E1: overhead vs membership density across all protocols.")
    Term.(const run $ seed_arg $ nodes_arg $ packets)

let failover_cmd =
  let run seed strategies =
    match strategies with
    | false ->
      let rows = Pim_exp.Failover.run ~seed () in
      Format.printf "%a" Pim_exp.Failover.pp_rows rows
    | true ->
      let rows = Pim_exp.Failover.run_strategies ~seed () in
      Format.printf "%a" Pim_exp.Failover.pp_strategy_rows rows
  in
  let strategies =
    Arg.(
      value & flag
      & info [ "strategies" ]
          ~doc:
            "Sweep RP placement strategies (static, random, center, locality, vns, bsr) \
             instead of RP-reachability timeouts; the bsr row runs a live election with no \
             static RP configuration.")
  in
  Cmd.v
    (Cmd.info "failover" ~doc:"E2: RP crash and receiver failover latency (section 3.9).")
    Term.(const run $ seed_arg $ strategies)

let ablation_cmd =
  let run seed =
    let rows = Pim_exp.Ablation.run_spt_policy ~seed () in
    Format.printf "%a" Pim_exp.Ablation.pp_policy_rows rows
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"E3: shared-tree vs SPT vs threshold DR policy (section 3.3).")
    Term.(const run $ seed_arg)

let refresh_cmd =
  let run seed =
    let rows = Pim_exp.Ablation.run_refresh ~seed () in
    Format.printf "%a" Pim_exp.Ablation.pp_refresh_rows rows
  in
  Cmd.v
    (Cmd.info "refresh" ~doc:"E4: soft-state refresh period ablation (footnote 4).")
    Term.(const run $ seed_arg)

let groups_cmd =
  let run seed counts =
    let rows =
      or_bad_input "groups" (fun () -> Pim_exp.Groups_scaling.run ~group_counts:counts ~seed ())
    in
    Format.printf "%a" Pim_exp.Groups_scaling.pp_rows rows
  in
  let counts =
    Arg.(value & opt (list int) [ 10; 40; 120 ]
         & info [ "counts" ] ~doc:"Group counts to sweep.")
  in
  Cmd.v
    (Cmd.info "groups" ~doc:"E5: overhead scaling with the number of sparse groups.")
    Term.(const run $ seed_arg $ counts)

let aggregation_cmd =
  let run seed =
    let rows = Pim_exp.Aggregation.run ~seed () in
    Format.printf "%a" Pim_exp.Aggregation.pp_rows rows
  in
  Cmd.v
    (Cmd.info "aggregation" ~doc:"E6: source aggregation in PIM messages (section 4).")
    Term.(const run $ seed_arg)

let churn_cmd =
  let run seed =
    let rows = Pim_exp.Churn.run ~seed () in
    Format.printf "%a" Pim_exp.Churn.pp_rows rows
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"E7: dynamic groups — join latency and overhead under membership churn.")
    Term.(const run $ seed_arg)

let loss_cmd =
  let run seed =
    let rows = Pim_exp.Loss.run ~seed () in
    Format.printf "%a" Pim_exp.Loss.pp_rows rows
  in
  Cmd.v
    (Cmd.info "loss" ~doc:"E8: robustness to control-message loss (footnote 4).")
    Term.(const run $ seed_arg)

(* "a, b or c": the choices an error message offers. *)
let one_of names =
  match List.rev names with
  | [] -> ""
  | [ only ] -> only
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

(* A single protocol name, canonicalized through Stack.of_string so typos
   become Cmdliner usage errors instead of silently filtering to nothing. *)
let protocol_conv ~allow_dvmrp =
  let parse s =
    match Pim_exp.Stack.of_string s with
    | Some Pim_exp.Stack.Dvmrp when not allow_dvmrp ->
      Error
        (`Msg
           "chaos compares PIM-DM on the dense side, not DVMRP (expected PIM-SM, PIM-DM, CBT \
            or MOSPF)")
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown protocol %S (expected %s)" s
              (if allow_dvmrp then "PIM-SM, PIM-DM, DVMRP, CBT or MOSPF"
               else "PIM-SM, PIM-DM, CBT or MOSPF")))
  in
  Arg.conv ~docv:"PROTOCOL"
    (parse, fun ppf p -> Format.pp_print_string ppf (Pim_exp.Stack.to_string p))

let chaos_cmd =
  let run seed nodes receivers events topology fault rp_strategy protocols json =
    let topology_name = topology in
    let topology =
      match topology with
      | "random" -> `Random
      | "transit-stub" -> `Transit_stub
      | s -> Format.eprintf "chaos: unknown topology %S (use random or transit-stub)@." s; exit 2
    in
    let fault_name = fault in
    let fault =
      match fault with
      | "random" -> `Random
      | "rp-crash" -> `Rp_crash
      | s -> Format.eprintf "chaos: unknown fault kind %S (use random or rp-crash)@." s; exit 2
    in
    if not (List.mem rp_strategy Pim_exp.Failover.all_strategies) then begin
      Format.eprintf "chaos: unknown RP strategy %S (use %s)@." rp_strategy
        (one_of Pim_exp.Failover.all_strategies);
      exit 2
    end;
    let protocols =
      match protocols with
      | [] -> None
      | ps -> Some (List.map Pim_exp.Stack.to_string ps)
    in
    let row_to_json (r : Pim_exp.Chaos.row) =
      Pim_util.Json.(
        Obj
          [
            ("protocol", Str r.protocol);
            ("deliveries", Int r.deliveries);
            ("expected", Int r.expected);
            ("dup_deliveries", Int r.dup_deliveries);
            ("max_gap", Float r.max_gap);
            ("mean_convergence", Float r.mean_convergence);
            ("max_convergence", Float r.max_convergence);
            ("churn_control", Int r.churn_control);
            ("total_control", Int r.total_control);
            ("restarts", Int r.restarts);
            ("residual_entries", Int r.residual_entries);
            ( "violations",
              Arr
                (List.map
                   (fun v -> Str (Format.asprintf "%a" Pim_sim.Oracle.pp_violation v))
                   r.violations) );
          ])
    in
    let params =
      Pim_util.Json.
        [
          ("seed", Int seed);
          ("nodes", Int nodes);
          ("receivers", Int receivers);
          ("events", Int events);
          ("topology", Str topology_name);
          ("fault", Str fault_name);
          ("rp_strategy", Str rp_strategy);
        ]
    in
    let report = ref None in
    ignore
      (with_json_output ~experiment:"chaos" ~json ~params ~row_to_json (fun () ->
           let r =
             Pim_exp.Chaos.run ~nodes ~receivers ~events ~topology ~fault ~rp_strategy
               ?protocols ~seed ()
           in
           report := Some r;
           r.Pim_exp.Chaos.rows));
    let report = Option.get !report in
    Format.printf "%a" Pim_exp.Chaos.pp_report report;
    let violations = Pim_exp.Chaos.total_violations report in
    if violations > 0 then begin
      Format.eprintf "chaos: %d oracle violation(s) — run failed (seed %d)@." violations seed;
      exit 1
    end
  in
  let nodes =
    Arg.(value & opt int 30 & info [ "nodes" ] ~doc:"Routers in the random network.")
  in
  let receivers =
    Arg.(value & opt int 5 & info [ "receivers" ] ~doc:"Group members (protected from crashes).")
  in
  let events =
    Arg.(value & opt int 8 & info [ "events" ] ~doc:"Fault events in the schedule.")
  in
  let topology =
    Arg.(
      value
      & opt string "random"
      & info [ "topology" ]
          ~doc:
            "Topology kind: $(b,random) (flat random graph) or $(b,transit-stub) (two-level \
             wide-area structure sized to --nodes routers; use --nodes 2000 for the scale run).")
  in
  let fault =
    Arg.(
      value
      & opt string "random"
      & info [ "fault" ]
          ~doc:
            "Fault kind: $(b,random) (mixed flaps/crashes/bursts) or $(b,rp-crash) (crash and \
             partition schedules aimed at the placed RP nodes; defaults --protocols to PIM-SM).")
  in
  let rp_strategy =
    Arg.(
      value
      & opt string "static"
      & info [ "rp-strategy" ]
          ~doc:
            "RP placement for PIM-SM: $(b,static), $(b,random), $(b,center), $(b,locality), \
             $(b,vns) (installed as static configuration) or $(b,bsr) (dynamic election, no \
             static mapping).")
  in
  let protocols =
    Arg.(
      value
      & opt (list (protocol_conv ~allow_dvmrp:false)) []
      & info [ "protocols" ]
          ~doc:
            "Comma-separated protocol subset (PIM-SM, PIM-DM, CBT, MOSPF); default all four.  \
             Unknown names are rejected.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "E9: fault-injection differential — one seeded fault schedule vs all four protocols, \
          with a global invariant oracle (any violation exits nonzero).")
    Term.(
      const run $ seed_arg $ nodes $ receivers $ events $ topology $ fault $ rp_strategy
      $ protocols $ json_arg)

let rp_cmd =
  let run seed nodes degree groups members strategy json =
    let module Prng = Pim_util.Prng in
    let module Addr = Pim_net.Addr in
    if not (List.mem strategy Pim_exp.Rp_placement.all_strategies) then begin
      Format.eprintf "rp: unknown strategy %S (use %s)@." strategy
        (one_of Pim_exp.Rp_placement.all_strategies);
      exit 2
    end;
    let prng = Prng.create seed in
    let topo =
      or_bad_input "rp" (fun () -> Pim_graph.Random_graph.generate ~prng ~nodes ~degree ())
    in
    let group_list = List.init groups (fun i -> Pim_net.Group.of_index (i + 1)) in
    let gmembers =
      or_bad_input "rp" (fun () ->
          List.map
            (fun g -> (g, Pim_graph.Random_graph.pick_members ~prng ~nodes ~count:members))
            group_list)
    in
    let placement =
      match strategy with
      | "static" -> List.map (fun (g, _) -> (g, [ Addr.router 0 ])) gmembers
      | s -> (
        match Pim_core.Placement.named s with
        | Some spec -> Pim_core.Placement.compute ~topo ~groups:gmembers ~seed spec
        | None -> assert false)
    in
    let rp_nodes =
      List.concat_map (fun (_, rps) -> List.filter_map Addr.router_index rps) placement
      |> List.sort_uniq Int.compare
    in
    let cbsrs =
      List.init nodes Fun.id
      |> List.filter (fun u -> not (List.mem u rp_nodes))
      |> List.filteri (fun i _ -> i < 2)
      |> List.mapi (fun i u -> (u, 2 - i))
    in
    let roles = Pim_core.Placement.roles placement ~n_nodes:nodes ~cbsrs in
    let eng = Pim_sim.Engine.create () in
    let net = Pim_sim.Net.create eng topo in
    let static = Pim_routing.Static.create net in
    let bsr =
      Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~forward_unicast:true ~net
        ~ribs:(Pim_routing.Static.rib static) ~roles ()
    in
    Pim_sim.Engine.run ~until:30. eng;
    let elected = Pim_core.Bsr.elected_bsr bsr 0 in
    let mapping = Pim_core.Bsr.mapping bsr 0 group_list in
    let disagreements = ref 0 in
    for u = 1 to nodes - 1 do
      if not (Option.equal Addr.equal (Pim_core.Bsr.elected_bsr bsr u) elected) then
        incr disagreements;
      if
        not
          (List.equal
             (fun (g1, r1) (g2, r2) ->
               Pim_net.Group.equal g1 g2 && List.equal Addr.equal r1 r2)
             (Pim_core.Bsr.mapping bsr u group_list)
             mapping)
      then incr disagreements
    done;
    Format.printf "# rp: BSR election over the %s placement (seed %d, %d nodes)@." strategy
      seed nodes;
    Format.printf "# elected BSR: %s (of %d candidates)@."
      (match elected with Some a -> Addr.to_string a | None -> "-")
      (List.length cbsrs);
    Format.printf "# %-18s %-40s %s@." "group" "elected_rps" "placed_rps";
    List.iter
      (fun (g, rps) ->
        let placed = Option.value ~default:[] (List.assoc_opt g placement) in
        Format.printf "  %-18s %-40s %s@." (Pim_net.Group.to_string g)
          (String.concat "," (List.map Addr.to_string rps))
          (String.concat "," (List.map Addr.to_string placed)))
      mapping;
    let comparison = Pim_exp.Rp_placement.run ~seed () in
    Format.printf "%a" Pim_exp.Rp_placement.pp_rows comparison;
    let row_to_json (r : Pim_exp.Rp_placement.row) =
      Pim_util.Json.(
        Obj
          [
            ("strategy", Str r.strategy);
            ("max_link_streams", Float r.max_link_streams);
            ("mean_max_delay", Float r.mean_max_delay);
            ("mean_delay_variation", Float r.mean_delay_variation);
            ("shard_balance", Float r.shard_balance);
            ("trials", Int r.trials);
          ])
    in
    let params =
      Pim_util.Json.
        [
          ("seed", Int seed);
          ("nodes", Int nodes);
          ("groups", Int groups);
          ("members", Int members);
          ("strategy", Str strategy);
          ( "elected_bsr",
            match elected with Some a -> Str (Addr.to_string a) | None -> Null );
          ( "mapping",
            Arr
              (List.map
                 (fun (g, rps) ->
                   Obj
                     [
                       ("group", Str (Pim_net.Group.to_string g));
                       ("rps", Arr (List.map (fun a -> Str (Addr.to_string a)) rps));
                     ])
                 mapping) );
          ("disagreements", Int !disagreements);
        ]
    in
    ignore
      (with_json_output ~experiment:"rp" ~json ~params ~row_to_json (fun () -> comparison));
    if !disagreements > 0 then begin
      Format.eprintf "rp: %d router(s) disagree with the elected mapping (seed %d)@."
        !disagreements seed;
      exit 1
    end
  in
  let nodes = Arg.(value & opt int 24 & info [ "nodes" ] ~doc:"Routers in the random network.") in
  let degree = Arg.(value & opt float 4. & info [ "degree" ] ~doc:"Mean node degree.") in
  let groups = Arg.(value & opt int 4 & info [ "groups" ] ~doc:"Groups to map.") in
  let members = Arg.(value & opt int 5 & info [ "members" ] ~doc:"Members per group.") in
  let strategy =
    Arg.(
      value
      & opt string "center"
      & info [ "strategy" ]
          ~doc:
            "Placement advertised through the election: $(b,static), $(b,random), \
             $(b,center), $(b,locality) or $(b,vns).")
  in
  Cmd.v
    (Cmd.info "rp"
       ~doc:
         "Run a BSR election over a placed candidate-RP set, print the elected group-to-RP \
          mapping (exit 1 if any router disagrees), and the placement-strategy comparison \
          sweep.")
    Term.(const run $ seed_arg $ nodes $ degree $ groups $ members $ strategy $ json_arg)

let all_cmd =
  let run seed =
    Format.printf "%a@." Pim_exp.Fig2a.pp_rows (Pim_exp.Fig2a.run ~trials:100 ~seed ());
    Format.printf "%a@." Pim_exp.Fig2b.pp_rows (Pim_exp.Fig2b.run ~trials:10 ~seed ());
    Format.printf "%a@." Pim_exp.Fig1.pp_results (Pim_exp.Fig1.run ());
    Format.printf "%a@." Pim_exp.Overhead.pp_rows (Pim_exp.Overhead.run ~seed ());
    Format.printf "%a@." Pim_exp.Failover.pp_rows (Pim_exp.Failover.run ~seed ());
    Format.printf "%a@." Pim_exp.Ablation.pp_policy_rows (Pim_exp.Ablation.run_spt_policy ~seed ());
    Format.printf "%a@." Pim_exp.Ablation.pp_refresh_rows (Pim_exp.Ablation.run_refresh ~seed ());
    Format.printf "%a@." Pim_exp.Groups_scaling.pp_rows
      (Pim_exp.Groups_scaling.run ~group_counts:[ 10; 40 ] ~seed ());
    Format.printf "%a@." Pim_exp.Aggregation.pp_rows (Pim_exp.Aggregation.run ~seed ());
    Format.printf "%a@." Pim_exp.Churn.pp_rows (Pim_exp.Churn.run ~seed ());
    Format.printf "%a@." Pim_exp.Loss.pp_rows (Pim_exp.Loss.run ~seed ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment at reduced trial counts (see EXPERIMENTS.md).")
    Term.(const run $ seed_arg)

(* --- pimsim trace: record / inspect / diff packet captures ------------ *)

let trace_record_cmd =
  let run seed members packets no_fallback capture trace_out metrics =
    let spec =
      {
        (Pim_exp.Scenario.default_spec ~seed ~member_count:members) with
        Pim_exp.Scenario.packets;
        switchover_fallback = not no_fallback;
      }
    in
    let o =
      or_bad_input "pimsim trace" (fun () ->
          (* The library accepts 0 (a run that only joins and drains);
             a recording without data packets captures nothing useful. *)
          if packets < 1 then
            invalid_arg (Printf.sprintf "--packets must be >= 1 (got %d)" packets);
          Pim_exp.Scenario.run ~capture_file:capture ?trace_file:trace_out
            ?metrics_file:metrics spec)
    in
    Format.printf "scenario seed=%d members=[%s] rp=%d source=%d nodes=%d@." seed
      (String.concat ";" (List.map string_of_int o.Pim_exp.Scenario.members))
      o.Pim_exp.Scenario.rp o.Pim_exp.Scenario.source o.Pim_exp.Scenario.nodes;
    Format.printf "ok=%b wrong=%d dup_suppressed=%d residual=%d@." o.Pim_exp.Scenario.ok
      (List.length o.Pim_exp.Scenario.wrong)
      o.Pim_exp.Scenario.dup_suppressed o.Pim_exp.Scenario.residual_entries;
    Format.printf "wrote %s@." capture;
    if not o.Pim_exp.Scenario.ok then exit 1
  in
  let seed = Arg.(value & opt int 56517 & info [ "seed" ] ~doc:"Scenario seed.") in
  let members = Arg.(value & opt int 6 & info [ "members" ] ~doc:"Group size.") in
  let packets =
    Arg.(value & opt int 30 & info [ "packets" ] ~doc:"Data packets to send (at least 1).")
  in
  let no_fallback =
    Arg.(
      value & flag
      & info [ "no-switchover-fallback" ]
          ~doc:
            "Disable the switchover shared-tree fallback (reproduces the pre-fix drop \
             behaviour; the run then exits 1 on the historical counterexample).")
  in
  let capture =
    Arg.(required & opt (some string) None & info [ "o"; "capture" ] ~docv:"FILE"
         ~doc:"JSONL packet capture output path.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Also write the typed event trace as JSONL.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Also write the metrics registry as JSON (schema pim-metrics/2).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Replay a seeded random scenario (the qcheck generator's derivation) under full \
          packet capture.  Exits 1 if the scenario violates the \
          complete/duplicate-free/drains property.")
    Term.(const run $ seed $ members $ packets $ no_fallback $ capture $ trace_out $ metrics)

let load_capture_or_die path =
  match Pim_sim.Capture.load path with
  | Ok entries -> entries
  | Error msg ->
    Format.eprintf "pimsim trace: %s: %s@." path msg;
    exit 2

let trace_show_cmd =
  let run path node group kind phase t_min t_max count_only =
    let phase =
      match phase with
      | None -> None
      | Some "send" -> Some `Send
      | Some "deliver" -> Some `Deliver
      | Some "drop" -> Some `Drop
      | Some p ->
        Format.eprintf "pimsim trace: unknown phase %S (send|deliver|drop)@." p;
        exit 2
    in
    let entries =
      Pim_sim.Capture.filter ?node ?group ?kind ?phase ?t_min ?t_max (load_capture_or_die path)
    in
    if count_only then Format.printf "%d@." (List.length entries)
    else List.iter (fun e -> Format.printf "%a@." Pim_sim.Capture.pp_entry e) entries
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"CAPTURE") in
  let node =
    Arg.(value & opt (some int) None & info [ "node" ] ~doc:"Keep entries on links touching this router.")
  in
  let group =
    Arg.(value & opt (some string) None & info [ "group" ] ~doc:"Keep entries addressed to this group/destination.")
  in
  let kind =
    Arg.(value & opt (some string) None & info [ "kind" ] ~doc:"Keep one payload kind (e.g. data, register, join/prune).")
  in
  let phase =
    Arg.(value & opt (some string) None & info [ "phase" ] ~doc:"Keep one phase: send, deliver or drop.")
  in
  let t_min = Arg.(value & opt (some float) None & info [ "from" ] ~docv:"T" ~doc:"Start of time window.") in
  let t_max = Arg.(value & opt (some float) None & info [ "to" ] ~docv:"T" ~doc:"End of time window.") in
  let count_only = Arg.(value & flag & info [ "count" ] ~doc:"Print only the number of matching entries.") in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Filter and pretty-print a JSONL packet capture.  Exits 2 if the file is missing or \
          malformed.")
    Term.(const run $ path $ node $ group $ kind $ phase $ t_min $ t_max $ count_only)

let trace_diff_cmd =
  let run a b =
    let ea = load_capture_or_die a and eb = load_capture_or_die b in
    let only_a, only_b = Pim_sim.Capture.diff ea eb in
    List.iter (fun e -> Format.printf "- %a@." Pim_sim.Capture.pp_entry e) only_a;
    List.iter (fun e -> Format.printf "+ %a@." Pim_sim.Capture.pp_entry e) only_b;
    if only_a = [] && only_b = [] then Format.printf "captures identical (%d entries)@." (List.length ea)
    else begin
      Format.eprintf "pimsim trace: %d entries only in %s, %d only in %s@." (List.length only_a)
        a (List.length only_b) b;
      exit 1
    end
  in
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"CAPTURE_A") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"CAPTURE_B") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Multiset-diff two captures.  Exits 0 when identical, 1 when they differ, 2 on a \
          missing or malformed file.")
    Term.(const run $ a $ b)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, inspect and diff packet-level captures of simulated scenarios (see \
          EXPERIMENTS.md).")
    [ trace_record_cmd; trace_show_cmd; trace_diff_cmd ]

(* --- pimsim scn: run / check declarative operational scenarios -------- *)

let load_program_or_die path =
  match Pim_exp.Dsl.parse_file path with
  | Ok p -> p
  | Error msg ->
    Format.eprintf "pimsim scn: %s: %s@." path msg;
    exit 2

let protocol_override_arg =
  Arg.(
    value
    & opt (some (protocol_conv ~allow_dvmrp:true)) None
    & info [ "protocol" ] ~doc:"Override the scenario's $(b,protocol) directive.")

(* The .scn directive spells it on/off; accept that on the flag too. *)
let on_off_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "on" | "true" -> Ok true
    | "off" | "false" -> Ok false
    | _ -> Error (`Msg (Printf.sprintf "expected on, off, true or false, got %S" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (if b then "on" else "off"))

let fallback_override_arg =
  Arg.(
    value
    & opt (some on_off_conv) None
    & info [ "switchover-fallback" ] ~docv:"on|off"
        ~doc:"Override the scenario's $(b,config switchover-fallback) directive.")

let scn_run_cmd =
  let run path protocol fallback trace_out capture metrics =
    let program = load_program_or_die path in
    let program =
      match fallback with
      | Some f -> { program with Pim_exp.Dsl.switchover_fallback = Some f }
      | None -> program
    in
    let outcome =
      or_bad_input ~input:path "pimsim scn" (fun () ->
          Pim_exp.Dsl.run ?protocol ?trace_file:trace_out ?capture_file:capture
            ?metrics_file:metrics program)
    in
    Format.printf "%s: %a" program.Pim_exp.Dsl.name Pim_exp.Dsl.pp_outcome outcome;
    if not outcome.Pim_exp.Dsl.ok then exit 1
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.scn") in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the typed event trace as JSONL.")
  in
  let capture =
    Arg.(value & opt (some string) None & info [ "capture" ] ~docv:"FILE"
         ~doc:"Write the packet capture as JSONL.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics registry as JSON.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a $(b,.scn) scenario under the invariant oracle.  Exits 0 when every \
          assertion holds, 1 on a violation, 2 on a parse or semantic error.")
    Term.(
      const run $ path $ protocol_override_arg $ fallback_override_arg $ trace_out $ capture
      $ metrics)

let scn_check_cmd =
  let run paths =
    List.iter
      (fun path ->
        let program = load_program_or_die path in
        let ctx =
          or_bad_input ~input:path "pimsim scn" (fun () -> Pim_exp.Dsl.context program)
        in
        Format.printf "%s: ok (%s, %s, %d nodes, %d steps)@." path program.Pim_exp.Dsl.name
          (match program.Pim_exp.Dsl.protocol with
          | Some p -> Pim_exp.Stack.to_string p
          | None -> "protocol unset")
          ctx.Pim_exp.Dsl.nodes
          (List.length program.Pim_exp.Dsl.steps))
      paths
  in
  let paths = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE.scn") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Parse scenarios and resolve their topology/roles without running them.  Exits 2 on \
          the first syntax or semantic error.")
    Term.(const run $ paths)

let scn_cmd =
  Cmd.group
    (Cmd.info "scn"
       ~doc:
         "Run and validate declarative operational scenarios (.scn files; grammar in \
          EXPERIMENTS.md).")
    [ scn_run_cmd; scn_check_cmd ]

let explore_cmd =
  let run base_file depth budget probes protocols fallback out =
    let base = load_program_or_die base_file in
    let protocols =
      match protocols with
      | [] -> (
        match base.Pim_exp.Dsl.protocol with
        | Some p -> [ p ]
        | None -> Pim_exp.Stack.all)
      | ps -> ps
    in
    let found_any = ref false in
    List.iter
      (fun protocol ->
        or_bad_input ~input:base_file "pimsim explore" (fun () ->
            let report =
              Pim_exp.Explore.run ~base ~protocol ~depth ~budget ~probes
                ?switchover_fallback:fallback
                ~log:(fun m -> Format.eprintf "# %s@." m)
                ()
            in
            Format.printf "%a" Pim_exp.Explore.pp_report report;
            Option.iter
              (fun (f : Pim_exp.Explore.found) ->
                found_any := true;
                let shrunk = f.Pim_exp.Explore.shrunk in
                if not (Sys.file_exists out) then Sys.mkdir out 0o755;
                let stem = Filename.concat out shrunk.Pim_exp.Dsl.name in
                let scn = stem ^ ".scn" in
                Out_channel.with_open_text scn (fun oc ->
                    Out_channel.output_string oc (Pim_exp.Dsl.to_string shrunk));
                (* Replay the shrunk counterexample under full capture. *)
                ignore
                  (Pim_exp.Dsl.run ~trace_file:(stem ^ ".trace.jsonl")
                     ~capture_file:(stem ^ ".capture.jsonl") shrunk);
                Format.printf "wrote %s (replayed: %s.trace.jsonl, %s.capture.jsonl)@." scn stem
                  stem)
              report.Pim_exp.Explore.found))
      protocols;
    if !found_any then exit 1
  in
  let base_file =
    Arg.(required & opt (some string) None & info [ "base" ] ~docv:"FILE.scn"
         ~doc:"Base scenario: topology, roles and initial joins to perturb.")
  in
  let depth =
    Arg.(value & opt int 3 & info [ "depth" ] ~doc:"Maximum perturbation-sequence length.")
  in
  let budget =
    Arg.(value & opt int 500 & info [ "budget" ] ~doc:"Maximum candidate scenarios to run.")
  in
  let probes =
    Arg.(value & opt int 6 & info [ "probes" ] ~doc:"Probe packets per candidate's verdict window.")
  in
  let protocols =
    Arg.(
      value
      & opt (list (protocol_conv ~allow_dvmrp:true)) []
      & info [ "protocols" ]
          ~doc:
            "Comma-separated protocols to explore; default the base scenario's directive, \
             else all five.")
  in
  let out =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR"
         ~doc:"Directory for shrunk counterexamples and their replay traces.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematic fault-space search: enumerate DSL perturbation sequences over the base \
          scenario, dedup converged states by digest, and on an invariant violation emit the \
          delta-debugged $(b,.scn) counterexample plus a deterministic replay capture.  Exits \
          1 when a violation is found, 0 when the bounded space is clean.")
    Term.(
      const run $ base_file $ depth $ budget $ probes $ protocols $ fallback_override_arg
      $ out)

let lint_cmd =
  let run baseline update typed build_root json paths =
    let paths = if paths = [] then [ "lib" ] else paths in
    let options =
      {
        Pim_check.Lint.baseline_path = baseline;
        update_baseline = update;
        warn_rules = [];
        quiet = false;
        tier = (if typed then Pim_check.Lint.Typed_tier else Pim_check.Lint.Untyped_tier);
        build_root;
        json;
      }
    in
    exit (Pim_check.Lint.run ~options ~paths Format.err_formatter)
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline file of tolerated legacy findings (ratchet).")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:"Rewrite the active tier's baseline rows from the current findings.")
  in
  let typed =
    Arg.(
      value & flag
      & info [ "typed" ]
          ~doc:
            "Run the typed analysis tier (R1 domain races, L1-L3 soft-state lifecycle, \
             T1 typed determinism) on .cmt files instead of the untyped Parsetree \
             tier.  Build first: $(b,dune build @check).")
  in
  let build_root =
    Arg.(
      value
      & opt (some string) None
      & info [ "build-root" ] ~docv:"DIR"
          ~doc:
            "Built tree holding the .cmt files (default: _build/default when present, \
             else the current directory).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one pimlint/1 JSON object instead of text.")
  in
  let paths = Arg.(value & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run pimlint, the determinism and protocol-hygiene static analyzer, over OCaml \
          sources (defaults to lib/).  The default tier parses sources; $(b,--typed) \
          analyzes the Typedtree out of dune's .cmt output.  See lib/check/RULES.md.")
    Term.(const run $ baseline $ update $ typed $ build_root $ json $ paths)

let workload_cmd =
  let run seed model protocol rp_strategy nodes groups scale skew duration window domains json
      schedule_only =
    let model =
      match Pim_exp.Workload.model_of_string model with
      | Some m -> m
      | None ->
        Format.eprintf "workload: unknown model %S (use zap, flashcrowd, zipf or diurnal)@."
          model;
        exit 2
    in
    let rp_strategy =
      match Pim_exp.Workload.rp_strategy_of_string rp_strategy with
      | Some s -> s
      | None ->
        Format.eprintf
          "workload: unknown RP strategy %S (use single, sharded[:k] or bsr[:k])@." rp_strategy;
        exit 2
    in
    let d = Pim_exp.Workload.default_spec model in
    let pick opt dflt = Option.value opt ~default:dflt in
    let spec =
      {
        d with
        Pim_exp.Workload.protocol;
        rp_strategy;
        seed;
        nodes = pick nodes d.Pim_exp.Workload.nodes;
        groups = pick groups d.Pim_exp.Workload.groups;
        scale = pick scale d.Pim_exp.Workload.scale;
        skew = pick skew d.Pim_exp.Workload.skew;
        duration = pick duration d.Pim_exp.Workload.duration;
        window = pick window d.Pim_exp.Workload.window;
        domains;
      }
    in
    if schedule_only then
      print_string
        (Pim_exp.Workload.render_schedule
           (or_bad_input "workload" (fun () -> Pim_exp.Workload.generate spec)))
    else
      or_bad_input "workload" (fun () ->
          let report = Pim_exp.Workload.run spec in
          Format.printf "%a@?" Pim_exp.Workload.pp_report report;
          (* Deliberately NOT the [with_json_output] envelope: the workload
             JSON carries no wall-clock or allocation fields, so two runs with
             the same seed are byte-identical (the determinism gate CI checks). *)
          Option.iter
            (fun path ->
              Pim_util.Json.to_file path (Pim_exp.Workload.report_to_json report);
              Format.eprintf "# wrote %s@." path)
            json;
          if List.exists (fun (_, n) -> n > 0) report.Pim_exp.Workload.oracle then exit 1)
  in
  let model =
    Arg.(
      value & opt string "zap"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Workload model: $(b,zap) (IPTV channel zapping with correlated storms), \
             $(b,flashcrowd) (one group grows 10 to full scale in seconds), $(b,zipf) \
             (stationary Zipf-popularity churn), or $(b,diurnal) (sin^2 day-curve load).")
  in
  let protocol =
    Arg.(
      value
      & opt (protocol_conv ~allow_dvmrp:true) Pim_exp.Stack.Pim_sm
      & info [ "protocol" ] ~docv:"PROTOCOL" ~doc:"Protocol stack to replay the schedule on.")
  in
  let rp_strategy =
    Arg.(
      value & opt string "sharded:4"
      & info [ "rp" ] ~docv:"STRATEGY"
          ~doc:
            "RP placement: $(b,single) (one backbone RP for every group), $(b,sharded:k) \
             (groups round-robined over k static backbone RPs), or $(b,bsr:k) (the same \
             sharding installed through a live BSR election).  PIM-SM and CBT only.")
  in
  let opt_int names doc = Arg.(value & opt (some int) None & info names ~doc) in
  let opt_float names doc = Arg.(value & opt (some float) None & info names ~doc) in
  let nodes = opt_int [ "nodes" ] "Routers (transit-stub topology is sized to this)." in
  let groups = opt_int [ "groups" ] "Multicast groups (channels)." in
  let scale = opt_int [ "scale" ] "Total receivers (many per router; IGMP-style aggregation)." in
  let skew = opt_float [ "skew" ] "Zipf exponent for group popularity." in
  let duration = opt_float [ "duration" ] "Virtual seconds of schedule." in
  let window = opt_float [ "window" ] "Tumbling measurement-window width (virtual seconds)." in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the pim-workload/1 report as JSON to $(docv).  No wall-clock fields: \
             byte-identical across runs with the same seed.")
  in
  let schedule_only =
    Arg.(
      value & flag
      & info [ "schedule-only" ]
          ~doc:"Print the generated schedule in canonical text form and exit (no replay).")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "E11: replay a production-shaped membership/traffic schedule (IPTV zapping, flash \
          crowd, Zipf churn, diurnal load) against one protocol stack and report per-window \
          join latency, SPT-switchover storms, per-RP load concentration and control \
          overhead.  Deterministic per seed; $(b,--domains) parallelizes schedule \
          generation without changing a byte of output.")
    Term.(
      const run $ seed_arg $ model $ protocol $ rp_strategy $ nodes $ groups $ scale $ skew
      $ duration $ window $ domains_arg $ json $ schedule_only)

let () =
  let info =
    Cmd.info "pimsim" ~version:"1.0.0"
      ~doc:"Reproduction harness for 'An Architecture for Wide-Area Multicast Routing' (SIGCOMM '94)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fig2a_cmd; fig2b_cmd; fig1_cmd; overhead_cmd; failover_cmd; ablation_cmd; refresh_cmd; groups_cmd; aggregation_cmd; churn_cmd; loss_cmd; chaos_cmd; rp_cmd; workload_cmd; trace_cmd; scn_cmd; explore_cmd; all_cmd; lint_cmd ]))
