module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
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

(* One protocol, one membership set, one sending schedule; returns the
   overhead counters. *)
let run_protocol ~topo ~members ~fraction ~packets ~interval ~source ~rp
    ?(sm = Pim_core.Config.fast) protocol name =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let v =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, [ rp ]) ] ~config:{ Stack.sm; lsa_refresh = None }
            ~groups:[ group ] ~net protocol))
  in
  let deliveries = ref 0 in
  List.iter
    (fun m ->
      v.Stack.join m;
      v.Stack.on_data m (fun _ -> incr deliveries))
    members;
  (* Control is counted from t=0 so that protocols paying their cost up
     front (MOSPF's membership flooding, CBT's tree building) are charged
     for it; no data flows during the warm-up, so data counts are
     unaffected. *)
  for i = 0 to packets - 1 do
    ignore
      (Engine.schedule_at eng (30. +. (interval *. float_of_int i)) (fun () ->
           v.Stack.send_from source))
  done;
  Engine.run ~until:(50. +. (interval *. float_of_int packets)) eng;
  {
    protocol = name;
    fraction;
    members = List.length members;
    data_traversals = Metrics.data_traversals metrics;
    control_traversals = Metrics.control_traversals metrics;
    state_entries = v.Stack.entries ();
    deliveries = !deliveries;
    expected_deliveries = packets * List.length members;
    spf_runs = Pim_sim.Counters.total (Net.counters net) Spf_runs;
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
      let go = run_protocol ~topo ~members ~fraction ~packets ~interval ~source ~rp in
      let spt policy = Pim_core.Config.(with_spt_policy policy fast) in
      [
        go ~sm:(spt Pim_core.Config.Immediate) Stack.Pim_sm "PIM-SM (SPT)";
        go ~sm:(spt Pim_core.Config.Never) Stack.Pim_sm "PIM-SM (shared)";
        go Stack.Dvmrp "DVMRP";
        go Stack.Pim_dm "PIM-DM";
        go Stack.Cbt "CBT";
        go Stack.Mospf "MOSPF";
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
