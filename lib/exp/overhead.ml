module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Random_graph = Pim_graph.Random_graph

type row = {
  protocol : string;
  fraction : float;
  members : int;
  data_traversals : int;
  control_traversals : int;
  state_entries : int;
  deliveries : int;
  expected_deliveries : int;
  spf_runs : int;
}

let group = Group.of_index 42

type setup = {
  join : int -> (unit -> unit) -> unit;  (* member node, delivery callback *)
  send : unit -> unit;  (* one packet from the source *)
  entries : unit -> int;
  spf : unit -> int;
}

(* One protocol, one membership set, one sending schedule; returns the
   overhead counters. *)
let run_protocol ~name ~topo ~members ~fraction ~packets ~interval ~(build : Net.t -> int -> setup)
    ~source =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let s = build net source in
  let deliveries = ref 0 in
  List.iter (fun m -> s.join m (fun () -> incr deliveries)) members;
  (* Control is counted from t=0 so that protocols paying their cost up
     front (MOSPF's membership flooding, CBT's tree building) are charged
     for it; no data flows during the warm-up, so data counts are
     unaffected. *)
  for i = 0 to packets - 1 do
    ignore (Engine.schedule_at eng (30. +. (interval *. float_of_int i)) s.send)
  done;
  Engine.run ~until:(50. +. (interval *. float_of_int packets)) eng;
  {
    protocol = name;
    fraction;
    members = List.length members;
    data_traversals = Metrics.data_traversals metrics;
    control_traversals = Metrics.control_traversals metrics;
    state_entries = s.entries ();
    deliveries = !deliveries;
    expected_deliveries = packets * List.length members;
    spf_runs = s.spf ();
  }

let pim_setup ~spt_policy ~rp net source =
  let config = Pim_core.Config.(with_spt_policy spt_policy fast) in
  let rp_set = Pim_core.Rp_set.single group (Addr.router rp) in
  let d = Pim_core.Deployment.create_static ~config net ~rp_set in
  {
    join =
      (fun m cb ->
        let r = Pim_core.Deployment.router d m in
        Pim_core.Router.join_local r group;
        Pim_core.Router.on_local_data r (fun _ -> cb ()));
    send =
      (fun () ->
        Pim_core.Router.send_local_data (Pim_core.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_core.Deployment.total_entries d);
    spf = (fun () -> 0);
  }

let dense_setup ~mode net source =
  let config = { Pim_dense.Router.fast_config with mode } in
  let d = Pim_dense.Router.Deployment.create_static ~config net in
  {
    join =
      (fun m cb ->
        let r = Pim_dense.Router.Deployment.router d m in
        Pim_dense.Router.join_local r group;
        Pim_dense.Router.on_local_data r (fun _ -> cb ()));
    send =
      (fun () ->
        Pim_dense.Router.send_local_data (Pim_dense.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_dense.Router.Deployment.total_entries d);
    spf = (fun () -> 0);
  }

let cbt_setup ~core net source =
  let core_of g = if Group.equal g group then Some (Addr.router core) else None in
  let d = Pim_cbt.Router.Deployment.create_static ~config:Pim_cbt.Router.fast_config net ~core_of in
  {
    join =
      (fun m cb ->
        let r = Pim_cbt.Router.Deployment.router d m in
        Pim_cbt.Router.join_local r group;
        Pim_cbt.Router.on_local_data r (fun _ -> cb ()));
    send =
      (fun () ->
        Pim_cbt.Router.send_local_data (Pim_cbt.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_cbt.Router.Deployment.total_entries d);
    spf = (fun () -> 0);
  }

let mospf_setup net source =
  let d = Pim_mospf.Router.Deployment.create net in
  {
    join =
      (fun m cb ->
        let r = Pim_mospf.Router.Deployment.router d m in
        Pim_mospf.Router.join_local r group;
        Pim_mospf.Router.on_local_data r (fun _ -> cb ()));
    send =
      (fun () ->
        Pim_mospf.Router.send_local_data (Pim_mospf.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_mospf.Router.Deployment.total_membership_entries d);
    spf = (fun () -> (Pim_mospf.Router.Deployment.total_stats d).Pim_mospf.Router.spf_runs);
  }

let run ?(nodes = 50) ?(degree = 4.) ?(packets = 30) ?(interval = 1.)
    ?(fractions = [ 0.04; 0.1; 0.2; 0.4; 0.8 ]) ~seed () =
  if packets < 0 then
    invalid_arg (Printf.sprintf "Overhead.run: packets must be >= 0 (got %d)" packets);
  List.concat_map
    (fun fraction ->
      (* Same topology and membership for every protocol at this point of
         the sweep. *)
      let prng = Prng.create (seed + int_of_float (fraction *. 1000.)) in
      let topo = Random_graph.generate ~prng ~nodes ~degree () in
      let count = max 1 (int_of_float (Float.round (fraction *. float_of_int nodes))) in
      let members = Random_graph.pick_members ~prng ~nodes ~count in
      let source =
        (* A fixed sender outside the member set when possible. *)
        match List.find_opt (fun u -> not (List.mem u members)) (List.init nodes Fun.id) with
        | Some u -> u
        | None -> 0
      in
      let rp = List.hd members in
      let go name build = run_protocol ~name ~topo ~members ~fraction ~packets ~interval ~build ~source in
      [
        go "PIM-SM (SPT)" (pim_setup ~spt_policy:Pim_core.Config.Immediate ~rp);
        go "PIM-SM (shared)" (pim_setup ~spt_policy:Pim_core.Config.Never ~rp);
        go "DVMRP" (dense_setup ~mode:Pim_dense.Router.Dvmrp);
        go "PIM-DM" (dense_setup ~mode:Pim_dense.Router.Pim_dm);
        go "CBT" (cbt_setup ~core:rp);
        go "MOSPF" mospf_setup;
      ])
    fractions
  (* Canonical report order: ascending fraction, protocols in the fixed
     order above within each fraction (stable sort), independent of how
     the caller ordered the sweep list. *)
  |> List.stable_sort (fun a b -> Float.compare a.fraction b.fraction)

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E1: overhead vs membership density (one group, one source, identical schedule)@.";
  Format.fprintf ppf "# %-16s %5s %4s %6s %8s %6s %9s %7s %5s@." "protocol" "frac" "mem" "data"
    "control" "state" "delivered" "expect" "spf";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-16s %5.2f %4d %6d %8d %6d %9d %7d %5d@." r.protocol r.fraction
        r.members r.data_traversals r.control_traversals r.state_entries r.deliveries
        r.expected_deliveries r.spf_runs)
    rows
