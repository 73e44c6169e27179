module Random_graph = Pim_graph.Random_graph

type policy_row = {
  policy : string;
  mean_delay : float;
  max_delay : float;
  state_entries : int;
  max_link_flows : int;
  deliveries : int;
}

(* PIM-SM on group 3: both ablations vary one knob of the router config. *)
let program name topology ~rp ~members steps =
  let protocol = Some Stack.Pim_sm in
  Dsl.{ empty with name; topology; protocol; group = 3; rp; members_decl = members; steps }

let send ?(count = 1) ?(interval = 0.) u = Dsl.Send { from = Node u; count; interval; host = 1 }

let policies =
  let policy p = { Stack.fast with sm = Pim_core.Config.(with_spt_policy p fast) } in
  Pim_core.Config.
    [
      ("shared-only (Never)", policy Never);
      ("immediate SPT", policy Immediate);
      ("threshold (5 pkts/10 s)", policy (Threshold { packets = 5; window = 10. }));
    ]

let plan_policy ?(nodes = 30) ?(degree = 4.) ?(members = 8) ?(senders = 4) ~seed () =
  let prng = Pim_util.Prng.create seed in
  (* The program redraws the graph; drawing it here moves [prng] to the members. *)
  ignore (Random_graph.generate ~prng ~nodes ~degree ());
  let members = Random_graph.pick_members ~prng ~nodes ~count:members in
  (* Senders are members, as in the paper's traffic-concentration test. *)
  let sends k s =
    List.init 20 (fun i -> Dsl.At (20. +. float_of_int i +. (0.13 *. float_of_int k), send s))
  in
  let sends = List.concat (List.mapi sends (List.filteri (fun i _ -> i < senders) members)) in
  program "ablation-policy" (Dsl.Random { nodes; degree; seed }) ~rp:[ List.hd members ] ~members
    (List.map (fun m -> Dsl.Join [ Node m ]) members
    @ (Dsl.Advance 20. :: sends)
    @ [ Dsl.Advance 40.; Dsl.Mark "end" ])

let policy_row policy (o : Dsl.outcome) =
  (* Last copy first: the summation order fixes the mean's last bits. *)
  let delay i t = t -. o.Dsl.departures.(i) in
  let delays = List.rev (Array.to_list (Array.mapi delay o.Dsl.arrivals)) in
  {
    policy;
    mean_delay = Pim_util.Stats.mean delays;
    max_delay = Pim_util.Stats.maximum delays;
    state_entries = o.Dsl.residual;
    max_link_flows = (Dsl.find_mark o "end").Dsl.max_link_data;
    deliveries = o.Dsl.deliveries;
  }

let replay_policy p = List.map (fun (name, config) -> policy_row name (Dsl.run ~config p)) policies

let run_spt_policy ?nodes ?degree ?members ?senders ~seed () =
  replay_policy (plan_policy ?nodes ?degree ?members ?senders ~seed ())

let pp_policy_rows ppf rows =
  Format.fprintf ppf "# E3: DR tree-type policy (same workload, 8 members, 4 senders)@.";
  Format.fprintf ppf "# %-24s %10s %9s %6s %9s %9s@." "policy" "mean_delay" "max_delay" "state"
    "max-link" "delivered";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-24s %10.2f %9.2f %6d %9d %9d@." r.policy r.mean_delay r.max_delay
        r.state_entries r.max_link_flows r.deliveries)
    rows

type refresh_row = {
  jp_period : float;
  control_traversals : int;
  cleanup_time : float;
  deliveries : int;
}

let leave_at = 30.

let plan_refresh period =
  (* An advance reads the state after every event due at that instant. *)
  let poll _ = Dsl.[ Advance 0.25; Mark "poll" ] in
  program (Printf.sprintf "refresh-%g" period) (Dsl.Line 6) ~rp:[ 2 ] ~members:[ 5 ]
    (Dsl.
       [
         Join [ Node 5 ];
         At (10., send ~count:40 ~interval:0.5 0);
         At (10., Mark "window");
         Advance leave_at;
         Mark "left";
         Leave [ Node 5 ];
       ]
    @ List.concat (List.init (int_of_float (((10. *. period) +. 60.) /. 0.25)) poll))

let replay_refresh period p =
  let o = Dsl.run ~config:{ Stack.fast with sm = Pim_core.Config.(with_jp_period period fast) } p in
  let drained (m : Dsl.mark) = String.equal m.Dsl.label "poll" && m.Dsl.entries = 0 in
  let control label = (Dsl.find_mark o label).Dsl.control in
  {
    jp_period = period;
    control_traversals = control "left" - control "window";
    cleanup_time =
      (match List.find_opt drained o.Dsl.marks with
      | Some m -> m.Dsl.at -. leave_at
      | None -> infinity);
    deliveries = o.Dsl.deliveries;
  }

let run_refresh ?(periods = [ 2.; 4.; 8.; 16. ]) ~seed:_ () =
  List.map (fun t -> replay_refresh t (plan_refresh t)) periods

let pp_refresh_rows ppf rows =
  Format.fprintf ppf "# E4: soft-state refresh period vs control cost and stale-state lifetime@.";
  Format.fprintf ppf "# jp_period  control(20s)  cleanup_time  delivered@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%10.1f  %12d  %12.2f  %9d@." r.jp_period r.control_traversals
        r.cleanup_time r.deliveries)
    rows
