module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Group = Pim_net.Group
module Addr = Pim_net.Addr

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

let scenario ~packets ~interval ~setup ~entries_at_end =
  let topo, _, _ = Pim_graph.Classic.three_domains () in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let deliveries = ref 0 in
  let send = setup ~eng ~net ~deliveries in
  (* Let membership and control state converge before sending. *)
  Engine.run ~until:30. eng;
  Metrics.reset metrics;
  for i = 0 to packets - 1 do
    ignore (Engine.schedule_at eng (30. +. (interval *. float_of_int i)) send)
  done;
  (* Leave ample drain time: the backbone links are slow (5 s). *)
  Engine.run ~until:(60. +. (interval *. float_of_int packets)) eng;
  ( Metrics.data_traversals metrics,
    Metrics.control_traversals metrics,
    Metrics.max_link_data metrics,
    !deliveries,
    entries_at_end () )

let run_dense ~packets ~interval ~mode ~name =
  let dep = ref None in
  let data, ctrl, maxl, deliv, entries =
    scenario ~packets ~interval
      ~setup:(fun ~eng:_ ~net ~deliveries ->
        let config = { Pim_dense.Router.fast_config with mode } in
        let d = Pim_dense.Router.Deployment.create_static ~config net in
        dep := Some d;
        List.iter
          (fun m ->
            let r = Pim_dense.Router.Deployment.router d m in
            Pim_dense.Router.join_local r group;
            Pim_dense.Router.on_local_data r (fun _ -> incr deliveries))
          members;
        let src = Pim_dense.Router.Deployment.router d source in
        fun () -> Pim_dense.Router.send_local_data src ~group ())
      ~entries_at_end:(fun () ->
        match !dep with Some d -> Pim_dense.Router.Deployment.total_entries d | None -> 0)
  in
  { protocol = name; data_traversals = data; control_traversals = ctrl; max_link_flows = maxl;
    deliveries = deliv; state_entries = entries }

let run_pim ~packets ~interval ~spt_policy ~name =
  let dep = ref None in
  let data, ctrl, maxl, deliv, entries =
    scenario ~packets ~interval
      ~setup:(fun ~eng:_ ~net ~deliveries ->
        let config = Pim_core.Config.(with_spt_policy spt_policy fast) in
        let rp_set = Pim_core.Rp_set.single group (Addr.router rp_node) in
        let d = Pim_core.Deployment.create_static ~config net ~rp_set in
        dep := Some d;
        List.iter
          (fun m ->
            let r = Pim_core.Deployment.router d m in
            Pim_core.Router.join_local r group;
            Pim_core.Router.on_local_data r (fun _ -> incr deliveries))
          members;
        let src = Pim_core.Deployment.router d source in
        fun () -> Pim_core.Router.send_local_data src ~group ())
      ~entries_at_end:(fun () ->
        match !dep with Some d -> Pim_core.Deployment.total_entries d | None -> 0)
  in
  { protocol = name; data_traversals = data; control_traversals = ctrl; max_link_flows = maxl;
    deliveries = deliv; state_entries = entries }

let run_cbt ~packets ~interval =
  let dep = ref None in
  let data, ctrl, maxl, deliv, entries =
    scenario ~packets ~interval
      ~setup:(fun ~eng:_ ~net ~deliveries ->
        let core_of g = if Group.equal g group then Some (Addr.router rp_node) else None in
        let d =
          Pim_cbt.Router.Deployment.create_static ~config:Pim_cbt.Router.fast_config net ~core_of
        in
        dep := Some d;
        List.iter
          (fun m ->
            let r = Pim_cbt.Router.Deployment.router d m in
            Pim_cbt.Router.join_local r group;
            Pim_cbt.Router.on_local_data r (fun _ -> incr deliveries))
          members;
        let src = Pim_cbt.Router.Deployment.router d source in
        fun () -> Pim_cbt.Router.send_local_data src ~group ())
      ~entries_at_end:(fun () ->
        match !dep with Some d -> Pim_cbt.Router.Deployment.total_entries d | None -> 0)
  in
  { protocol = "CBT (core in domain A)"; data_traversals = data; control_traversals = ctrl;
    max_link_flows = maxl; deliveries = deliv; state_entries = entries }

let run ?(packets = 40) ?(interval = 1.0) () =
  if packets < 0 then
    invalid_arg (Printf.sprintf "Fig1.run: packets must be >= 0 (got %d)" packets);
  [
    run_dense ~packets ~interval ~mode:Pim_dense.Router.Dvmrp ~name:"DVMRP (dense mode)";
    run_dense ~packets ~interval ~mode:Pim_dense.Router.Pim_dm ~name:"PIM dense mode";
    run_pim ~packets ~interval ~spt_policy:Pim_core.Config.Never ~name:"PIM-SM (shared tree)";
    run_pim ~packets ~interval ~spt_policy:Pim_core.Config.Immediate ~name:"PIM-SM (SPT switch)";
    run_cbt ~packets ~interval;
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
