module Prng = Pim_util.Prng
module Random_graph = Pim_graph.Random_graph

type row = {
  protocol : string;
  loss : float;
  deliveries : int;
  expected : int;
  control_traversals : int;
  control_dropped : int;
}

let nodes = 25

(* Every run redraws the same topology and membership from [seed]; the
   loss PRNG is seeded [seed + 1].  The loss is set before the joins,
   which transmit at once.  Generous warm-up: under heavy loss the trees
   take several refresh rounds to assemble.  The stream is scheduled
   after running to t=30 (an advance, not an [at]), so each send at a
   whole second runs after the protocol timers due at that instant. *)
let plan ~seed ~packets loss =
  let prng = Prng.create seed in
  let topo = Random_graph.generate ~prng ~nodes ~degree:4. () in
  let members = Random_graph.pick_members ~prng ~nodes ~count:4 in
  let source =
    let rec pick () =
      let s = Prng.int prng nodes in
      if List.mem s members then pick () else s
    in
    pick ()
  in
  let program =
    {
      Dsl.empty with
      name = Printf.sprintf "loss-%g" loss;
      topology = Dsl.Random { nodes; degree = 4.; seed };
      group = 8;
      rp = [ List.hd members ];
      members_decl = members;
      source_decl = Some source;
      steps =
        Dsl.Loss { rate = loss; duration = None; control_only = true; seed = Some (seed + 1) }
        :: List.map (fun m -> Dsl.Join [ Dsl.Node m ]) members
        @ [ Dsl.Advance 30. ]
        @ (if packets > 0 then
             [ Dsl.Send { from = Dsl.Source; count = packets; interval = 1.; host = 1 } ]
           else [])
        @ [ Dsl.Advance (30. +. float_of_int packets); Dsl.Mark "end" ];
    }
  in
  (Dsl.context ~topo program, program)

let row ~loss ~packets (p : Dsl.program) (o : Dsl.outcome) =
  let fin = Dsl.find_mark o "end" in
  {
    protocol = o.Dsl.protocol;
    loss;
    deliveries = o.Dsl.deliveries;
    expected = packets * List.length p.Dsl.members_decl;
    control_traversals = fin.Dsl.control;
    control_dropped = fin.Dsl.dropped;
  }

let run ?(loss_rates = [ 0.; 0.1; 0.25; 0.4 ]) ?(packets = 60) ~seed () =
  List.concat_map
    (fun loss ->
      let ctx, p = plan ~seed ~packets loss in
      List.map
        (fun (protocol, sm) ->
          row ~loss ~packets p (Dsl.run ~ctx ~protocol ~config:{ Stack.fast with sm } p))
        [
          (Stack.Pim_sm, Pim_core.Config.(with_spt_policy Never fast));
          (Stack.Cbt, Pim_core.Config.fast);
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
