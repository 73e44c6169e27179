module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group

type row = {
  protocol : string;
  loss : float;
  deliveries : int;
  expected : int;
  control_traversals : int;
  control_dropped : int;
}

let group = Group.of_index 8

let control_only pkt = not (Metrics.is_data pkt)

let run_one ~seed ~loss ~packets ?(sm = Pim_core.Config.fast) protocol name =
  let prng = Prng.create seed in
  let topo = Pim_graph.Random_graph.generate ~prng ~nodes:25 ~degree:4. () in
  let members = Pim_graph.Random_graph.pick_members ~prng ~nodes:25 ~count:4 in
  let source =
    let rec pick () =
      let s = Prng.int prng 25 in
      if List.mem s members then pick () else s
    in
    pick ()
  in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  Net.set_loss_rate net ~prng:(Prng.create (seed + 1)) ~filter:control_only loss;
  let v =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, [ List.hd members ]) ]
            ~config:{ Stack.fast with sm } ~groups:[ group ] ~net protocol))
  in
  let deliveries = ref 0 in
  List.iter
    (fun m ->
      v.Stack.join m;
      v.Stack.on_data m (fun _ -> incr deliveries))
    members;
  (* Generous warm-up: under heavy loss the trees take several refresh
     rounds to assemble. *)
  Engine.run ~until:30. eng;
  for i = 0 to packets - 1 do
    ignore (Engine.schedule_at eng (30. +. float_of_int i) (fun () -> v.Stack.send_from source))
  done;
  Engine.run ~until:(60. +. float_of_int packets) eng;
  {
    protocol = name;
    loss;
    deliveries = !deliveries;
    expected = packets * List.length members;
    control_traversals = Metrics.control_traversals metrics;
    control_dropped = Net.dropped net;
  }

let run ?(loss_rates = [ 0.; 0.1; 0.25; 0.4 ]) ?(packets = 60) ~seed () =
  (* Every run redraws the same topology/membership from [seed]. *)
  List.concat_map
    (fun loss ->
      [
        run_one ~seed ~loss ~packets ~sm:Pim_core.Config.(with_spt_policy Never fast) Stack.Pim_sm
          "PIM-SM";
        run_one ~seed ~loss ~packets Stack.Cbt "CBT";
      ])
    loss_rates

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E8: robustness to control-message loss (data frames never dropped)@.";
  Format.fprintf ppf "# %-8s %5s %9s %7s %8s %8s@." "protocol" "loss" "delivered" "expect"
    "control" "dropped";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8s %5.2f %9d %7d %8d %8d@." r.protocol r.loss r.deliveries
        r.expected r.control_traversals r.control_dropped)
    rows
