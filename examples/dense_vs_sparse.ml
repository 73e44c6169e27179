(* The Figure 1 argument, executed: three domains joined by a wide-area
   backbone, one group member per domain, one source in domain A.

   Dense-mode DVMRP periodically re-broadcasts data over the whole
   internet when its prunes time out; PIM sparse mode touches only the
   links receivers asked for.  This example prints the per-5-second
   data-transmission counts so the DVMRP re-flood spikes are visible, then
   the summary table of DESIGN.md experiment F1.

   Run with: dune exec examples/dense_vs_sparse.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Group = Pim_net.Group
module Addr = Pim_net.Addr

let group = Group.of_index 1

let members = [ 2; 7; 12 ]

let timeline name ~setup =
  let topo, _, _ = Pim_graph.Classic.three_domains () in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Pim_exp.Metrics.attach net in
  let send = setup net in
  Engine.run ~until:30. eng;
  (* One packet per second for 60 s: with the fast 18 s prune timeout the
     DVMRP branches grow back and re-flood several times. *)
  for i = 0 to 59 do
    ignore (Engine.schedule_at eng (30. +. float_of_int i) send)
  done;
  let buckets = ref [] in
  let last = ref (Pim_exp.Metrics.data_traversals metrics) in
  for k = 1 to 14 do
    Engine.run ~until:(30. +. (5. *. float_of_int k)) eng;
    let total = Pim_exp.Metrics.data_traversals metrics in
    buckets := (total - !last) :: !buckets;
    last := total
  done;
  Format.printf "%-22s |" name;
  List.iter (fun c -> Format.printf "%5d" c) (List.rev !buckets);
  Format.printf "@."

let () =
  Format.printf "data-packet link transmissions per 5-second bucket (t=30..100):@.";
  timeline "DVMRP (dense mode)" ~setup:(fun net ->
      let d =
        Pim_dense.Router.Deployment.create_static ~config:Pim_dense.Router.fast_config net
      in
      List.iter
        (fun m -> Pim_dense.Router.join_local (Pim_dense.Router.Deployment.router d m) group)
        members;
      let src = Pim_dense.Router.Deployment.router d 1 in
      fun () -> Pim_dense.Router.send_local_data src ~group ());
  timeline "PIM-SM" ~setup:(fun net ->
      let rp_set = Pim_core.Rp_set.single group (Addr.router 0) in
      let d = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set in
      List.iter
        (fun m -> Pim_core.Router.join_local (Pim_core.Deployment.router d m) group)
        members;
      let src = Pim_core.Deployment.router d 1 in
      fun () -> Pim_core.Router.send_local_data src ~group ());
  Format.printf
    "@.(DVMRP's recurring spikes are the pruned branches growing back and being@.";
  Format.printf " re-flooded, the behaviour Figure 1(b) of the paper illustrates.)@.";
  Format.printf "@.summary over the full scenario:@.";
  Format.printf "%a" Pim_exp.Fig1.pp_results (Pim_exp.Fig1.run ())
