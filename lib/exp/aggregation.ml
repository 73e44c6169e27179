type row = {
  sources : int;
  aggregated : bool;
  join_entries : int;
  control_bytes : int;
  deliveries : int;
  expected : int;
}

(* The RP sits next to the source router so the shared tree is short
   and the interesting joins are the (S,G) refreshes along the path.
   The run goes on several holdtimes past the end of the stream, so the
   periodic (prefix-)joins are what keeps the trees alive. *)
let program ~hops ~sources ~packets =
  let send h =
    Dsl.At
      ( 5. +. (0.02 *. float_of_int h),
        Dsl.Send { from = Dsl.Node 0; count = packets; interval = 1.; host = h } )
  in
  {
    Dsl.empty with
    name = Printf.sprintf "aggregation-%d" sources;
    topology = Dsl.Line (hops + 1);
    group = 6;
    rp = [ 1 ];
    steps =
      [ Dsl.Join [ Dsl.Node hops ]; Dsl.Advance 5. ]
      @ (if packets > 0 then List.init sources (fun i -> send (i + 1)) else [])
      @ [ Dsl.Advance (15. +. float_of_int packets); Dsl.Mark "end" ];
  }

let row ~sources ~packets ~aggregated (o : Dsl.outcome) =
  {
    sources;
    aggregated;
    join_entries = Pim_sim.Counters.total o.Dsl.counters Joins_sent;
    control_bytes = (Dsl.find_mark o "end").Dsl.control_bytes;
    deliveries = o.Dsl.deliveries;
    expected = packets * sources;
  }

let run ?(hops = 6) ?(source_counts = [ 1; 2; 4; 8 ]) ?(packets = 25) ~seed:_ () =
  List.concat_map
    (fun sources ->
      let p = program ~hops ~sources ~packets in
      let ctx = Dsl.context p in
      List.map
        (fun aggregate_sources ->
          let config = { Stack.fast with sm = { Pim_core.Config.fast with aggregate_sources } } in
          row ~sources ~packets ~aggregated:aggregate_sources
            (Dsl.run ~ctx ~protocol:Stack.Pim_sm ~config p))
        [ false; true ])
    source_counts

let pp_rows ppf rows =
  Format.fprintf ppf
    "# E6: source aggregation in PIM messages (sources share a first-hop /24)@.";
  Format.fprintf ppf "# sources  aggregated  join_entries  control_bytes  delivered  expect@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d  %10s  %12d  %13d  %9d  %6d@." r.sources
        (if r.aggregated then "yes" else "no")
        r.join_entries r.control_bytes r.deliveries r.expected)
    rows
