module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Group = Pim_net.Group

type result = {
  protocol : string;
  data_traversals : int;
  control_traversals : int;
  max_link_flows : int;
  deliveries : int;
  state_entries : int;
}

let group = Group.of_index 1

let members = [ 2; 7; 12 ]

let source = 1  (* a non-member router in domain A *)

let rp_node = 0  (* the domain-A gateway, as the paper's figure 1(c) suggests *)

let run_one ~packets ~interval ?(sm = Pim_core.Config.fast) protocol name =
  let topo, _, _ = Pim_graph.Classic.three_domains () in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let v =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, [ rp_node ]) ] ~config:{ Stack.fast with sm }
            ~groups:[ group ] ~net protocol))
  in
  let deliveries = ref 0 in
  List.iter
    (fun m ->
      v.Stack.join m;
      v.Stack.on_data m (fun _ -> incr deliveries))
    members;
  (* Let membership and control state converge before sending. *)
  Engine.run ~until:30. eng;
  Metrics.reset metrics;
  for i = 0 to packets - 1 do
    ignore
      (Engine.schedule_at eng (30. +. (interval *. float_of_int i)) (fun () ->
           v.Stack.send_from source))
  done;
  (* Leave ample drain time: the backbone links are slow (5 s). *)
  Engine.run ~until:(60. +. (interval *. float_of_int packets)) eng;
  {
    protocol = name;
    data_traversals = Metrics.data_traversals metrics;
    control_traversals = Metrics.control_traversals metrics;
    max_link_flows = Metrics.max_link_data metrics;
    deliveries = !deliveries;
    state_entries = v.Stack.entries ();
  }

let run ?(packets = 40) ?(interval = 1.0) () =
  if packets < 0 then
    invalid_arg (Printf.sprintf "Fig1.run: packets must be >= 0 (got %d)" packets);
  let spt policy = Pim_core.Config.(with_spt_policy policy fast) in
  [
    run_one ~packets ~interval Stack.Dvmrp "DVMRP (dense mode)";
    run_one ~packets ~interval Stack.Pim_dm "PIM dense mode";
    run_one ~packets ~interval ~sm:(spt Pim_core.Config.Never) Stack.Pim_sm "PIM-SM (shared tree)";
    run_one ~packets ~interval ~sm:(spt Pim_core.Config.Immediate) Stack.Pim_sm
      "PIM-SM (SPT switch)";
    run_one ~packets ~interval Stack.Cbt "CBT (core in domain A)";
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
