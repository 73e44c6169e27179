module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
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

let run_protocol ~topo ~workloads ~packets ?(sm = Pim_core.Config.fast) protocol name =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let views =
    Stack.create_many
      ~placement:(List.map (fun w -> (w.group, [ w.rp ])) workloads)
      ~config:{ Stack.sm; lsa_refresh = None }
      ~groups:(List.map (fun w -> w.group) workloads)
      ~net protocol
  in
  let view w = List.assoc w.group views in
  (* [entries] is deployment-wide: any view reads it, and no groups means
     no state. *)
  let entries () = match views with [] -> 0 | (_, v) :: _ -> v.Stack.entries () in
  let deliveries = ref 0 in
  List.iter
    (fun w ->
      let v = view w in
      List.iter
        (fun m ->
          v.Stack.join m;
          v.Stack.on_data m (fun _ -> incr deliveries))
        w.members)
    workloads;
  Engine.run ~until:30. eng;
  List.iteri
    (fun k w ->
      let v = view w in
      for i = 0 to packets - 1 do
        ignore
          (Engine.schedule_at eng
             (30. +. float_of_int i +. (0.001 *. float_of_int k))
             (fun () -> v.Stack.send_from w.source))
      done)
    workloads;
  (* Probe state while the flows are live: dense-mode (S,G) entries are
     data-driven and decay once sources stop. *)
  let peak_entries = ref 0 in
  ignore
    (Engine.schedule_at eng
       (32. +. float_of_int packets)
       (fun () -> peak_entries := entries ()));
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
      let go = run_protocol ~topo ~workloads ~packets in
      [
        go ~sm:Pim_core.Config.(with_spt_policy Never fast) Stack.Pim_sm "PIM-SM";
        go Stack.Dvmrp "DVMRP";
        go Stack.Cbt "CBT";
        go Stack.Mospf "MOSPF";
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
