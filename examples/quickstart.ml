(* Quickstart: the Figure 3 rendezvous in five routers.

   Topology:   sender host -- [0] -- [1] -- [2](RP) -- [3] -- [4] -- receiver host

   1. The receiver's first-hop router (4) sends a PIM join toward the RP.
   2. The sender's first-hop router (0) registers the first data packet to
      the RP, which joins back toward the source.
   3. Data then flows natively source -> RP -> receiver; with the default
      Immediate policy router 4 also switches to the source's SPT.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Addr = Pim_net.Addr
module Group = Pim_net.Group

let () =
  let topo = Pim_graph.Classic.line 5 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let group = Group.of_index 7 in
  let rp = Addr.router 2 in
  let rp_set = Pim_core.Rp_set.single group rp in
  let dep =
    Pim_core.Deployment.create_static ~config:Pim_core.Config.fast ~trace net ~rp_set
  in

  (* Receiver behind router 4. *)
  let receiver = Pim_core.Deployment.router dep 4 in
  Pim_core.Router.join_local receiver group;
  let received = ref 0 in
  Pim_core.Router.on_local_data receiver (fun pkt ->
      incr received;
      Format.printf "t=%6.2f  receiver got %s@." (Engine.now eng)
        (Pim_net.Packet.payload_to_string pkt.Pim_net.Packet.payload));

  (* Let the join propagate, then send five packets from router 0's host. *)
  Engine.run ~until:5. eng;
  let sender = Pim_core.Deployment.router dep 0 in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
           Pim_core.Router.send_local_data sender ~group ()))
  done;
  Engine.run ~until:20. eng;

  Format.printf "@.--- protocol events ---@.";
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Join _ | Prune _ | Register _ | Spt_bit _ | Spt_switch _ ->
        Format.printf "%a@." Trace.pp_record r
      | _ -> ())
    (Trace.records trace);

  Format.printf "@.--- forwarding state ---@.";
  Array.iter
    (fun r ->
      let fib = Pim_core.Router.fib r in
      if Pim_mcast.Fwd.count fib > 0 then begin
        Format.printf "router %d:@." (Pim_core.Router.node r);
        Format.printf "%a" Pim_mcast.Fwd.pp fib
      end)
    (Pim_core.Deployment.routers dep);

  Format.printf "@.--- shared tree (ASCII) ---@.";
  Format.printf "%a" (Pim_core.Deployment.pp_shared_tree dep group) ();

  Format.printf "@.received %d of 5 packets@." !received;
  if !received <> 5 then exit 1
