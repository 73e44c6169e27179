module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Mdata = Pim_mcast.Mdata
module Random_graph = Pim_graph.Random_graph

type policy_row = {
  policy : string;
  mean_delay : float;
  max_delay : float;
  state_entries : int;
  max_link_flows : int;
  deliveries : int;
}

let group = Group.of_index 3

(* PIM-SM alone, one group, the RP at [rp]: both ablations vary one knob
   of the router config. *)
let deploy ~rp sm net =
  snd
    (List.hd
       (Stack.create_many ~placement:[ (group, [ rp ]) ] ~config:{ Stack.fast with sm }
          ~groups:[ group ] ~net Stack.Pim_sm))

let run_one_policy ~topo ~members ~senders ~name ~spt_policy =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let v = deploy ~rp:(List.hd members) Pim_core.Config.(with_spt_policy spt_policy fast) net in
  let delays = ref [] in
  let deliveries = ref 0 in
  List.iter
    (fun m ->
      v.Stack.join m;
      v.Stack.on_data m (fun pkt ->
          incr deliveries;
          match pkt.Pim_net.Packet.payload with
          | Mdata.Data i -> delays := (Engine.now eng -. i.Mdata.sent_at) :: !delays
          | _ -> ()))
    members;
  Engine.run ~until:20. eng;
  Metrics.reset metrics;
  List.iteri
    (fun k s ->
      for i = 0 to 19 do
        ignore
          (Engine.schedule_at eng
             (20. +. float_of_int i +. (0.13 *. float_of_int k))
             (fun () -> v.Stack.send_from s))
      done)
    senders;
  Engine.run ~until:60. eng;
  {
    policy = name;
    mean_delay = Pim_util.Stats.mean !delays;
    max_delay = Pim_util.Stats.maximum !delays;
    state_entries = v.Stack.entries ();
    max_link_flows = Metrics.max_link_data metrics;
    deliveries = !deliveries;
  }

let run_spt_policy ?(nodes = 30) ?(degree = 4.) ?(members = 8) ?(senders = 4) ~seed () =
  let prng = Prng.create seed in
  let topo = Random_graph.generate ~prng ~nodes ~degree () in
  let member_list = Random_graph.pick_members ~prng ~nodes ~count:members in
  let sender_list =
    (* Senders are members, as in the paper's traffic-concentration
       experiment. *)
    List.filteri (fun i _ -> i < senders) member_list
  in
  [
    run_one_policy ~topo ~members:member_list ~senders:sender_list ~name:"shared-only (Never)"
      ~spt_policy:Pim_core.Config.Never;
    run_one_policy ~topo ~members:member_list ~senders:sender_list ~name:"immediate SPT"
      ~spt_policy:Pim_core.Config.Immediate;
    run_one_policy ~topo ~members:member_list ~senders:sender_list
      ~name:"threshold (5 pkts/10 s)"
      ~spt_policy:(Pim_core.Config.Threshold { packets = 5; window = 10. });
  ]

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

let run_one_refresh period =
  let topo = Pim_graph.Classic.line 6 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let v = deploy ~rp:2 Pim_core.Config.(with_jp_period period fast) net in
  let receiver = 5 in
  v.Stack.join receiver;
  let deliveries = ref 0 in
  v.Stack.on_data receiver (fun _ -> incr deliveries);
  for i = 0 to 39 do
    ignore
      (Engine.schedule_at eng (10. +. (0.5 *. float_of_int i)) (fun () -> v.Stack.send_from 0))
  done;
  (* Steady-state control cost over [10, 30). *)
  ignore (Engine.schedule_at eng 10. (fun () -> Metrics.reset metrics));
  Engine.run ~until:30. eng;
  let control = Metrics.control_traversals metrics in
  (* Receiver silently leaves; watch stale state drain. *)
  let leave_at = 30. in
  v.Stack.leave receiver;
  let baseline = ref None in
  let probe = Engine.every eng ~start:0.25 ~interval:0.25 (fun () ->
      if !baseline = None && v.Stack.entries () = 0 then
        baseline := Some (Engine.now eng))
  in
  Engine.run ~until:(leave_at +. (10. *. period) +. 60.) eng;
  Engine.cancel probe;
  let cleanup_time = match !baseline with Some t -> t -. leave_at | None -> infinity in
  { jp_period = period; control_traversals = control; cleanup_time; deliveries = !deliveries }

let run_refresh ?(periods = [ 2.; 4.; 8.; 16. ]) ~seed:_ () =
  List.map run_one_refresh periods

let pp_refresh_rows ppf rows =
  Format.fprintf ppf "# E4: soft-state refresh period vs control cost and stale-state lifetime@.";
  Format.fprintf ppf "# jp_period  control(20s)  cleanup_time  delivered@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%10.1f  %12d  %12.2f  %9d@." r.jp_period r.control_traversals
        r.cleanup_time r.deliveries)
    rows
