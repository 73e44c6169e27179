module Prng = Pim_util.Prng
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

(* Control is counted from t=0 so that protocols paying their cost up
   front (MOSPF's membership flooding, CBT's tree building) are charged
   for it; no data flows during the warm-up, so data counts are
   unaffected. *)
let plan ~nodes ~degree ~packets ~interval ~seed fraction =
  (* Same topology and membership for every protocol at this point of
     the sweep. *)
  let seed = seed + int_of_float (fraction *. 1000.) in
  let prng = Prng.create seed in
  let topo = Random_graph.generate ~prng ~nodes ~degree () in
  let count = max 1 (int_of_float (Float.round (fraction *. float_of_int nodes))) in
  let members = Random_graph.pick_members ~prng ~nodes ~count in
  let source =
    (* A fixed sender outside the member set when possible. *)
    match List.find_opt (fun u -> not (List.mem u members)) (List.init nodes Fun.id) with
    | Some u -> u
    | None -> 0
  in
  let program =
    {
      Dsl.empty with
      name = Printf.sprintf "overhead-%g" fraction;
      topology = Dsl.Random { nodes; degree; seed };
      group = 42;
      rp = [ List.hd members ];
      members_decl = members;
      source_decl = Some source;
      steps =
        List.map (fun m -> Dsl.Join [ Dsl.Node m ]) members
        @ (if packets > 0 then
             [ Dsl.At (30., Dsl.Send { from = Dsl.Source; count = packets; interval; host = 1 }) ]
           else [])
        @ [ Dsl.Advance (50. +. (interval *. float_of_int packets)); Dsl.Mark "end" ];
    }
  in
  (Dsl.context ~topo program, program)

let row ~fraction ~packets label (p : Dsl.program) (o : Dsl.outcome) =
  let fin = Dsl.find_mark o "end" in
  let members = List.length p.Dsl.members_decl in
  {
    protocol = label;
    fraction;
    members;
    data_traversals = fin.Dsl.data;
    control_traversals = fin.Dsl.control;
    state_entries = o.Dsl.residual;
    deliveries = o.Dsl.deliveries;
    expected_deliveries = packets * members;
    spf_runs = Pim_sim.Counters.total o.Dsl.counters Spf_runs;
  }

let run ?(nodes = 50) ?(degree = 4.) ?(packets = 30) ?(interval = 1.)
    ?(fractions = [ 0.04; 0.1; 0.2; 0.4; 0.8 ]) ~seed () =
  if packets < 0 then
    invalid_arg (Printf.sprintf "Overhead.run: packets must be >= 0 (got %d)" packets);
  let spt policy = Pim_core.Config.(with_spt_policy policy fast) in
  List.concat_map
    (fun fraction ->
      let ctx, program = plan ~nodes ~degree ~packets ~interval ~seed fraction in
      List.map
        (fun (label, protocol, sm) ->
          row ~fraction ~packets label program
            (Dsl.run ~ctx ~protocol ~config:{ Stack.sm; lsa_refresh = None } program))
        [
          ("PIM-SM (SPT)", Stack.Pim_sm, spt Pim_core.Config.Immediate);
          ("PIM-SM (shared)", Stack.Pim_sm, spt Pim_core.Config.Never);
          ("DVMRP", Stack.Dvmrp, Pim_core.Config.fast);
          ("PIM-DM", Stack.Pim_dm, Pim_core.Config.fast);
          ("CBT", Stack.Cbt, Pim_core.Config.fast);
          ("MOSPF", Stack.Mospf, Pim_core.Config.fast);
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
