module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Group = Pim_net.Group
module Addr = Pim_net.Addr

type row = {
  sources : int;
  aggregated : bool;
  join_entries : int;
  control_bytes : int;
  deliveries : int;
  expected : int;
}

let group = Group.of_index 6

let one ~hops ~sources ~packets ~aggregated =
  let topo = Pim_graph.Classic.line (hops + 1) in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let config =
    { (Pim_core.Config.fast) with Pim_core.Config.aggregate_sources = aggregated }
  in
  (* RP next to the source router so the shared tree is short and the
     interesting joins are the (S,G) refreshes along the path. *)
  let rp_set = Pim_core.Rp_set.single group (Addr.router 1) in
  (* pimlint: allow H6 — sends from distinct hosts (~host) *)
  let dep = Pim_core.Deployment.create_static ~config net ~rp_set in
  let receiver = Pim_core.Deployment.router dep hops in
  Pim_core.Router.join_local receiver group;
  let deliveries = ref 0 in
  Pim_core.Router.on_local_data receiver (fun _ -> incr deliveries);
  Engine.run ~until:5. eng;
  let sender = Pim_core.Deployment.router dep 0 in
  for i = 0 to packets - 1 do
    for h = 1 to sources do
      ignore
        (Engine.schedule_at eng
           (5. +. float_of_int i +. (0.02 *. float_of_int h))
           (fun () -> Pim_core.Router.send_local_data sender ~group ~host:h ()))
    done
  done;
  (* Run several holdtimes past the end of the stream so the periodic
     (prefix-)joins are what keeps the trees alive. *)
  Engine.run ~until:(20. +. float_of_int packets) eng;
  {
    sources;
    aggregated;
    join_entries = Pim_sim.Counters.total (Net.counters net) Joins_sent;
    control_bytes = Metrics.control_bytes metrics;
    deliveries = !deliveries;
    expected = packets * sources;
  }

let run ?(hops = 6) ?(source_counts = [ 1; 2; 4; 8 ]) ?(packets = 25) ~seed:_ () =
  List.concat_map
    (fun sources ->
      [
        one ~hops ~sources ~packets ~aggregated:false;
        one ~hops ~sources ~packets ~aggregated:true;
      ])
    source_counts

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E6: source aggregation in PIM messages (sources share a first-hop /24)@.";
  Format.fprintf ppf "# sources  aggregated  join_entries  control_bytes  delivered  expect@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d  %10s  %12d  %13d  %9d  %6d@." r.sources
        (if r.aggregated then "yes" else "no")
        r.join_entries r.control_bytes r.deliveries r.expected)
    rows
