(* Figure 5 of the paper: switching from the shared (RP) tree to the
   source's shortest-path tree.

   Topology (matching the figure):

       receiver -- [A=0] -- [B=1] -- [C=2 = RP]
                              |
                            [D=3] -- source Sn

   The receiver first gets Sn's packets over the shared tree
   A <- B <- C (the RP), where they arrive via D's registers and C's join
   toward Sn.  With the Immediate policy, A notices data from Sn, creates
   (Sn,G) with a cleared SPT bit and joins toward Sn (through B).  Data
   then arrives at B directly from D; B sets the SPT bit and — because its
   shared-tree incoming interface (toward C) differs from its SPT incoming
   interface (toward D) — sends a prune {Sn, RP-bit} toward the RP, which
   installs a negative cache at C (section 3.3).

   Run with: dune exec examples/spt_switchover.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Topology = Pim_graph.Topology
module Addr = Pim_net.Addr
module Group = Pim_net.Group

let () =
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 1);  (* A - B *)
  ignore (Topology.add_p2p b 1 2);  (* B - C *)
  ignore (Topology.add_p2p b 1 3);  (* B - D *)
  let topo = Topology.freeze b in

  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let group = Group.of_index 5 in
  let rp_set = Pim_core.Rp_set.single group (Addr.router 2) in
  let dep =
    Pim_core.Deployment.create_static ~config:Pim_core.Config.fast ~trace net ~rp_set
  in

  let a = Pim_core.Deployment.router dep 0 in
  Pim_core.Router.join_local a group;
  let arrivals = ref [] in
  Pim_core.Router.on_local_data a (fun pkt ->
      match pkt.Pim_net.Packet.payload with
      | Pim_mcast.Mdata.Data i -> arrivals := (i.Pim_mcast.Mdata.seq, Engine.now eng) :: !arrivals
      | _ -> ());

  Engine.run ~until:5. eng;
  let d = Pim_core.Deployment.router dep 3 in
  for i = 0 to 9 do
    ignore
      (Engine.schedule_at eng (5. +. float_of_int i) (fun () ->
           Pim_core.Router.send_local_data d ~group ()))
  done;
  Engine.run ~until:30. eng;

  Format.printf "=== arrivals at the receiver (seq, time, hops travelled) ===@.";
  List.iter
    (fun (seq, t) ->
      Format.printf "  seq %2d at t=%5.2f  (sent t=%5.2f -> %.0f hops)@." seq t
        (5. +. float_of_int seq)
        (t -. (5. +. float_of_int seq)))
    (List.sort compare !arrivals);
  Format.printf "  (early packets take the 3-hop RP detour D-B-C-B-A plus the register;@.";
  Format.printf "   after the switch they take the 2-hop shortest path D-B-A)@.";
  let received = List.map fst !arrivals in
  let lost = List.filter (fun s -> not (List.mem s received)) (List.init 10 Fun.id) in
  if lost <> [] then begin
    Format.printf
      "  lost in the transition window: seqs %s — the SPT bit 'minimizes the@."
      (String.concat "," (List.map string_of_int lost));
    Format.printf
      "  chance of losing data packets during the transition' (section 3.3), it@.";
    Format.printf "  does not eliminate it: register copies in flight fail the incoming-@.";
    Format.printf "  interface check once an on-path router completes its switch.@."
  end;

  Format.printf "@.=== final forwarding state ===@.";
  List.iter
    (fun (name, u) ->
      Format.printf "router %s:@." name;
      Format.printf "%a" Pim_mcast.Fwd.pp (Pim_core.Router.fib (Pim_core.Deployment.router dep u)))
    [ ("A", 0); ("B", 1); ("C (RP)", 2); ("D", 3) ];

  Format.printf "@.=== switchover events ===@.";
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Spt_switch _ | Spt_bit _ | Prune _ | Join _ -> Format.printf "%a@." Trace.pp_record r
      | _ -> ())
    (Trace.records trace);

  (* The first packets (via the RP) and the steady state (via the SPT)
     must both arrive; a couple of packets may fall in the transition
     window. *)
  if List.length !arrivals < 8 then exit 1
