module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group

type row = {
  mean_on : float;
  mean_off : float;
  joins_observed : int;
  mean_join_latency : float;
  p95_join_latency : float;
  control_traversals : int;
  deliveries : int;
}

let group = Group.of_index 7

let one ~receivers ~duration ~mean_on ~mean_off ~seed =
  let prng = Prng.create seed in
  let ts = Pim_graph.Transit_stub.generate ~transit:4 ~stubs_per_transit:2 ~stub_size:4 ~prng () in
  let eng = Engine.create () in
  let net = Net.create eng ts.Pim_graph.Transit_stub.topo in
  let metrics = Metrics.attach net in
  (* RP on the backbone: reachable from every stub. *)
  let rp = List.hd ts.Pim_graph.Transit_stub.transit in
  let v =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, [ rp ]) ] ~groups:[ group ] ~net Stack.Pim_sm))
  in
  let source_node = Pim_graph.Transit_stub.random_stub_member ts ~prng in
  let latencies = ref [] in
  let deliveries = ref 0 in
  let joins = ref 0 in
  (* Each churning receiver alternates joined/left with exponential
     holding times; join latency = first delivery after each join. *)
  let setup_receiver node =
    let waiting_since = ref None in
    v.Stack.on_data node (fun _ ->
        incr deliveries;
        match !waiting_since with
        | Some t0 ->
          latencies := (Engine.now eng -. t0) :: !latencies;
          waiting_since := None
        | None -> ());
    let stream = Prng.split prng in
    let rec join_phase () =
      if Engine.now eng < duration then begin
        incr joins;
        waiting_since := Some (Engine.now eng);
        v.Stack.join node;
        ignore
          (Engine.schedule eng
             ~after:(Float.max 1. (Prng.exponential stream mean_on))
             (fun () ->
               v.Stack.leave node;
               waiting_since := None;
               ignore
                 (Engine.schedule eng
                    ~after:(Float.max 1. (Prng.exponential stream mean_off))
                    join_phase)))
      end
    in
    ignore (Engine.schedule eng ~after:(Prng.float stream mean_off) join_phase)
  in
  let chosen = ref [] in
  while List.length !chosen < receivers do
    let n = Pim_graph.Transit_stub.random_stub_member ts ~prng in
    if n <> source_node && not (List.mem n !chosen) then chosen := n :: !chosen
  done;
  List.iter setup_receiver !chosen;
  (* A steady source the whole time. *)
  let rec send t0 =
    if t0 < duration then
      ignore
        (Engine.schedule_at eng t0 (fun () ->
             v.Stack.send_from source_node;
             send (t0 +. 0.5)))
  in
  send 2.;
  Engine.run ~until:(duration +. 20.) eng;
  {
    mean_on;
    mean_off;
    joins_observed = !joins;
    mean_join_latency = Pim_util.Stats.mean !latencies;
    p95_join_latency = Pim_util.Stats.percentile 95. !latencies;
    control_traversals = Metrics.control_traversals metrics;
    deliveries = !deliveries;
  }

let run ?(receivers = 6) ?(duration = 300.) ?(on_off_pairs = [ (60., 30.); (20., 10.); (8., 4.) ])
    ~seed () =
  List.map
    (fun (mean_on, mean_off) -> one ~receivers ~duration ~mean_on ~mean_off ~seed)
    on_off_pairs

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E7: dynamic groups — receivers churn on a transit-stub internet (source: 2 pkt/s)@.";
  Format.fprintf ppf "# mean_on  mean_off  joins  mean_join_lat  p95_join_lat  control  delivered@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8.0f  %8.0f  %5d  %13.2f  %12.2f  %7d  %9d@." r.mean_on r.mean_off
        r.joins_observed r.mean_join_latency r.p95_join_latency r.control_traversals
        r.deliveries)
    rows
