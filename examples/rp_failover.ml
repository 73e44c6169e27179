(* Section 3.9 of the paper: multiple rendezvous points and RP failure.

   A 3x3 grid; the group is served by two RPs (primary: router 4, the
   center; alternate: router 2).  The source's first-hop router registers
   to *both* RPs, so data reaches both; the receiver joins only the
   primary.  At t=30 the primary RP crashes.  The receiver stops seeing
   RP-reachability messages, its RP timer expires, and it re-joins toward
   the alternate — "sources do not need to take special action".

   Run with: dune exec examples/rp_failover.exe *)

module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Addr = Pim_net.Addr
module Group = Pim_net.Group

let () =
  let topo = Pim_graph.Classic.grid 3 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let trace = Trace.create eng in
  let group = Group.of_index 9 in
  let config =
    {
      Pim_core.Config.fast with
      Pim_core.Config.rp_reach_period = 1.5;
      rp_timeout = 6.;
      sweep_interval = 0.5;
      spt_policy = Pim_core.Config.Never;
    }
  in
  let rp_set = Pim_core.Rp_set.of_list [ (group, [ Addr.router 4; Addr.router 2 ]) ] in
  let dep = Pim_core.Deployment.create_static ~config ~trace net ~rp_set in

  let receiver = Pim_core.Deployment.router dep 8 in
  Pim_core.Router.join_local receiver group;
  let arrivals = ref [] in
  Pim_core.Router.on_local_data receiver (fun _ ->
      arrivals := Engine.now eng :: !arrivals);

  let source = Pim_core.Deployment.router dep 0 in
  let rec send t0 =
    if t0 < 60. then
      ignore
        (Engine.schedule_at eng t0 (fun () ->
             Pim_core.Router.send_local_data source ~group ();
             send (t0 +. 1.)))
  in
  send 10.;
  ignore
    (Engine.schedule_at eng 30. (fun () ->
         Format.printf "t=30.00: primary RP (router 4) crashes@.";
         Net.set_node_up net 4 false));
  Engine.run ~until:70. eng;

  Format.printf "@.current RP at the receiver: %s@."
    (match Pim_core.Router.current_rp receiver group with
    | Some a -> Addr.to_string a
    | None -> "none");

  Format.printf "@.=== failover events ===@.";
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Rp_failover _ | Rp_retarget _ -> Format.printf "%a@." Trace.pp_record r
      | _ -> ())
    (Trace.records trace);

  let times = List.sort compare !arrivals in
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
    | _ -> acc
  in
  Format.printf "@.delivered %d packets; longest delivery gap %.2f s (RP timer was %.1f s)@."
    (List.length times) (max_gap 0. times) config.Pim_core.Config.rp_timeout;
  (* Failover must have happened and delivery must have resumed. *)
  let after = List.filter (fun t -> t > 40.) times in
  if after = [] then exit 1
