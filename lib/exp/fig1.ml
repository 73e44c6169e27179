type result = {
  protocol : string;
  data_traversals : int;
  control_traversals : int;
  max_link_flows : int;
  deliveries : int;
  state_entries : int;
}

(* Membership and control state converge before the first packet. *)
let warm_up = 30.

let plan ~packets ~interval =
  (* Leave ample drain time: the backbone links are slow (5 s).  The
     cursor is at [warm_up], so the last advance is [until -. warm_up],
     exact for any [until] below 2^53. *)
  let until = 60. +. (interval *. float_of_int packets) in
  let program =
    {
      Dsl.empty with
      name = "fig1";
      topology = Dsl.Three_domains;
      group = 1;
      rp = [ 0 ];  (* the domain-A gateway, as the paper's figure 1(c) suggests *)
      members_decl = [ 2; 7; 12 ];
      source_decl = Some 1;  (* a non-member router in domain A *)
      steps =
        [ Dsl.Join [ Dsl.Members ]; Dsl.Advance warm_up; Dsl.Mark "warm" ]
        @ (if packets > 0 then
             [ Dsl.Send { from = Dsl.Source; count = packets; interval; host = 1 } ]
           else [])
        @ [ Dsl.Advance (until -. warm_up); Dsl.Mark "end" ];
    }
  in
  (Dsl.context program, program)

let row label (o : Dsl.outcome) =
  let warm = Dsl.find_mark o "warm" and fin = Dsl.find_mark o "end" in
  {
    protocol = label;
    data_traversals = fin.Dsl.data - warm.Dsl.data;
    control_traversals = fin.Dsl.control - warm.Dsl.control;
    (* No data flows before the first send, so the run's busiest link is
       the window's. *)
    max_link_flows = fin.Dsl.max_link_data;
    deliveries = o.Dsl.deliveries;
    state_entries = o.Dsl.residual;
  }

let run ?(packets = 40) ?(interval = 1.0) () =
  if packets < 0 then
    invalid_arg (Printf.sprintf "Fig1.run: packets must be >= 0 (got %d)" packets);
  let ctx, program = plan ~packets ~interval in
  let spt policy = Pim_core.Config.(with_spt_policy policy fast) in
  List.map
    (fun (label, protocol, sm) ->
      row label (Dsl.run ~ctx ~protocol ~config:{ Stack.fast with sm } program))
    [
      ("DVMRP (dense mode)", Stack.Dvmrp, Pim_core.Config.fast);
      ("PIM dense mode", Stack.Pim_dm, Pim_core.Config.fast);
      ("PIM-SM (shared tree)", Stack.Pim_sm, spt Pim_core.Config.Never);
      ("PIM-SM (SPT switch)", Stack.Pim_sm, spt Pim_core.Config.Immediate);
      ("CBT (core in domain A)", Stack.Cbt, Pim_core.Config.fast);
    ]

let pp_results ppf results =
  Format.fprintf ppf
    "# Figure 1 scenario: 3 domains, 1 member each, source in domain A (18 routers)@.";
  Format.fprintf ppf "# %-22s %6s %7s %8s %9s %6s@." "protocol" "data" "control" "max-link"
    "delivered" "state";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s %6d %7d %8d %9d %6d@." r.protocol r.data_traversals
        r.control_traversals r.max_link_flows r.deliveries r.state_entries)
    results
