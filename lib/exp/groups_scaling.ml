module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Random_graph = Pim_graph.Random_graph

type row = {
  protocol : string;
  groups : int;
  data_traversals : int;
  control_traversals : int;
  state_entries : int;
  deliveries : int;
  expected_deliveries : int;
}

type workload = {
  group : Group.t;
  members : int list;
  source : int;
  rp : int;
}

let make_workloads ~prng ~nodes ~groups ~members_per_group =
  List.init groups (fun k ->
      let members = Random_graph.pick_members ~prng ~nodes ~count:members_per_group in
      let source = Prng.int prng nodes in
      { group = Group.of_index (k + 1); members; source; rp = List.hd members })

type setup = {
  join : Group.t -> int -> (unit -> unit) -> unit;
  send : Group.t -> int -> unit;
  entries : unit -> int;
}

let run_protocol ~name ~topo ~workloads ~packets ~(build : Net.t -> setup) =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let s = build net in
  let deliveries = ref 0 in
  List.iter
    (fun w -> List.iter (fun m -> s.join w.group m (fun () -> incr deliveries)) w.members)
    workloads;
  Engine.run ~until:30. eng;
  List.iteri
    (fun k w ->
      for i = 0 to packets - 1 do
        ignore
          (Engine.schedule_at eng
             (30. +. float_of_int i +. (0.001 *. float_of_int k))
             (fun () -> s.send w.group w.source))
      done)
    workloads;
  (* Probe state while the flows are live: dense-mode (S,G) entries are
     data-driven and decay once sources stop. *)
  let peak_entries = ref 0 in
  ignore
    (Engine.schedule_at eng
       (32. +. float_of_int packets)
       (fun () -> peak_entries := s.entries ()));
  Engine.run ~until:(60. +. float_of_int packets) eng;
  {
    protocol = name;
    groups = List.length workloads;
    data_traversals = Metrics.data_traversals metrics;
    control_traversals = Metrics.control_traversals metrics;
    state_entries = !peak_entries;
    deliveries = !deliveries;
    expected_deliveries =
      packets * List.fold_left (fun acc w -> acc + List.length w.members) 0 workloads;
  }

let pim_setup ~workloads net =
  let rp_set =
    Pim_core.Rp_set.of_list (List.map (fun w -> (w.group, [ Addr.router w.rp ])) workloads)
  in
  let config = Pim_core.Config.(with_spt_policy Never fast) in
  let d = Pim_core.Deployment.create_static ~config net ~rp_set in
  {
    join =
      (fun g m cb ->
        let r = Pim_core.Deployment.router d m in
        Pim_core.Router.join_local r g;
        Pim_core.Router.on_local_data r (fun pkt ->
            match Pim_mcast.Mdata.group pkt with
            | Some gg when Group.equal gg g -> cb ()
            | _ -> ()));
    send =
      (fun g src -> Pim_core.Router.send_local_data (Pim_core.Deployment.router d src) ~group:g ());
    entries = (fun () -> Pim_core.Deployment.total_entries d);
  }

let dense_setup net =
  let d = Pim_dense.Router.Deployment.create_static ~config:Pim_dense.Router.fast_config net in
  {
    join =
      (fun g m cb ->
        let r = Pim_dense.Router.Deployment.router d m in
        Pim_dense.Router.join_local r g;
        Pim_dense.Router.on_local_data r (fun pkt ->
            match Pim_mcast.Mdata.group pkt with
            | Some gg when Group.equal gg g -> cb ()
            | _ -> ()));
    send =
      (fun g src ->
        Pim_dense.Router.send_local_data (Pim_dense.Router.Deployment.router d src) ~group:g ());
    entries = (fun () -> Pim_dense.Router.Deployment.total_entries d);
  }

let cbt_setup ~workloads net =
  let cores =
    List.map (fun w -> (w.group, Addr.router w.rp)) workloads
  in
  let core_of g = List.assoc_opt g cores in
  let d = Pim_cbt.Router.Deployment.create_static ~config:Pim_cbt.Router.fast_config net ~core_of in
  {
    join =
      (fun g m cb ->
        let r = Pim_cbt.Router.Deployment.router d m in
        Pim_cbt.Router.join_local r g;
        Pim_cbt.Router.on_local_data r (fun pkt ->
            match Pim_mcast.Mdata.group pkt with
            | Some gg when Group.equal gg g -> cb ()
            | _ -> ()));
    send =
      (fun g src ->
        Pim_cbt.Router.send_local_data (Pim_cbt.Router.Deployment.router d src) ~group:g ());
    entries = (fun () -> Pim_cbt.Router.Deployment.total_entries d);
  }

let mospf_setup net =
  let d = Pim_mospf.Router.Deployment.create net in
  {
    join =
      (fun g m cb ->
        let r = Pim_mospf.Router.Deployment.router d m in
        Pim_mospf.Router.join_local r g;
        Pim_mospf.Router.on_local_data r (fun pkt ->
            match Pim_mcast.Mdata.group pkt with
            | Some gg when Group.equal gg g -> cb ()
            | _ -> ()));
    send =
      (fun g src ->
        Pim_mospf.Router.send_local_data (Pim_mospf.Router.Deployment.router d src) ~group:g ());
    entries = (fun () -> Pim_mospf.Router.Deployment.total_membership_entries d);
  }

let run ?(nodes = 50) ?(degree = 4.) ?(members_per_group = 3) ?(packets = 5)
    ?(group_counts = [ 10; 40; 120 ]) ~seed () =
  List.iter
    (fun groups ->
      if groups < 0 then
        invalid_arg
          (Printf.sprintf "Groups_scaling.run: group counts must be >= 0 (got %d)" groups))
    group_counts;
  List.concat_map
    (fun groups ->
      let prng = Prng.create (seed + groups) in
      let topo = Random_graph.generate ~prng ~nodes ~degree () in
      let workloads = make_workloads ~prng ~nodes ~groups ~members_per_group in
      [
        run_protocol ~name:"PIM-SM" ~topo ~workloads ~packets ~build:(pim_setup ~workloads);
        run_protocol ~name:"DVMRP" ~topo ~workloads ~packets ~build:dense_setup;
        run_protocol ~name:"CBT" ~topo ~workloads ~packets ~build:(cbt_setup ~workloads);
        run_protocol ~name:"MOSPF" ~topo ~workloads ~packets ~build:mospf_setup;
      ])
    group_counts

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E5: scaling with the number of sparse groups (3 members, 1 source each)@.";
  Format.fprintf ppf "# %-8s %7s %7s %8s %6s %9s %7s@." "protocol" "groups" "data" "control"
    "state" "delivered" "expect";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8s %7d %7d %8d %6d %9d %7d@." r.protocol r.groups
        r.data_traversals r.control_traversals r.state_entries r.deliveries
        r.expected_deliveries)
    rows
