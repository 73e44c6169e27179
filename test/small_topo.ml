(* Random small topologies for the property tests. *)

module Topology = Pim_graph.Topology
module Prng = Pim_util.Prng

(* Small graphs with parallel links, LANs and costs 1 to [max_cost]
   (default 3), so equal-cost ties and interface order matter. *)
let random ?(max_cost = 3) prng =
  let n = 4 + Prng.int prng 9 in
  let b = Topology.builder n in
  let cost () = 1 + Prng.int prng max_cost in
  for v = 1 to n - 1 do
    ignore (Topology.add_p2p ~cost:(cost ()) b (Prng.int prng v) v)
  done;
  for _ = 1 to Prng.int prng n do
    let u = Prng.int prng n and v = Prng.int prng n in
    if u <> v then ignore (Topology.add_p2p ~cost:(cost ()) b u v)
  done;
  for _ = 1 to Prng.int prng 3 do
    match List.sort_uniq Int.compare (List.init 3 (fun _ -> Prng.int prng n)) with
    | _ :: _ :: _ as lan -> ignore (Topology.add_lan ~cost:(cost ()) b lan)
    | _ -> ()
  done;
  Topology.freeze b
