(* Figure 4 of the paper: how a receiver joins and sets up the shared
   tree — with the real IGMP machinery (query, report, DR) driving it.

   Topology (matching the figure):

     receiver host -- [A=0] -- [B=1] -- [C=2 = RP] -- source host

   1. The host answers A's IGMP query with a report for G (or reports
      unsolicited on joining).
   2. A, the designated router of the stub LAN, creates the "(*,G)" entry
      with the LAN as oif and its interface toward the RP as iif, and
      sends a PIM join {C, RP-bit, WC-bit} to B.
   3. B instantiates "(*,G)" the same way and propagates the join to C.
   4. C recognises its own address: it is the RP; its "(*,G)" iif is null.

   Run with: dune exec examples/receiver_join.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Topology = Pim_graph.Topology
module Addr = Pim_net.Addr
module Group = Pim_net.Group

let () =
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 1 2);
  let receiver_lan = Topology.add_lan b [ 0 ] in
  let source_lan = Topology.add_lan b [ 2 ] in
  let topo = Topology.freeze b in

  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let group = Group.of_index 4 in
  let rp = Addr.router 2 in
  let rp_set = Pim_core.Rp_set.single group rp in
  let igmp_config =
    { Pim_igmp.Router.default_config with Pim_igmp.Router.query_interval = 5.; max_resp = 1. }
  in
  let dep =
    Pim_core.Deployment.create_static ~config:Pim_core.Config.fast ~igmp_config ~trace net
      ~rp_set
  in

  (* A real host on A's stub LAN joins the group via IGMP. *)
  let receiver = Pim_igmp.Host.create net ~link:receiver_lan ~addr:(Addr.host ~router:0 9) () in
  let got = ref 0 in
  Pim_igmp.Host.on_data receiver (fun _ -> incr got);
  Pim_igmp.Host.join receiver group;

  Engine.run ~until:10. eng;

  Format.printf "=== state after the join has propagated (t=10) ===@.";
  List.iter
    (fun (name, u) ->
      Format.printf "router %s:@." name;
      Format.printf "%a" Pim_mcast.Fwd.pp (Pim_core.Router.fib (Pim_core.Deployment.router dep u)))
    [ ("A", 0); ("B", 1); ("C (RP)", 2) ];

  (* A host on C's stub LAN sends: the RP is the first-hop router, so no
     register detour is needed. *)
  let source = Pim_igmp.Host.create net ~link:source_lan ~addr:(Addr.host ~router:2 9) () in
  for _ = 1 to 3 do
    Pim_igmp.Host.send_data source ~group ()
  done;
  Engine.run ~until:20. eng;

  Format.printf "@.=== IGMP and PIM events ===@.";
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Local_member _ | Join _ | Register _ | Entry_install _ ->
        Format.printf "%a@." Trace.pp_record r
      | _ -> ())
    (Trace.records trace);

  Format.printf "@.receiver host got %d of 3 data packets@." !got;
  if !got <> 3 then exit 1
