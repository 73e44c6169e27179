module Prng = Pim_util.Prng

let generate ?(cost = 1) ?(delay = 1.0) ~prng ~nodes ~degree () =
  if nodes < 2 then invalid_arg "Random_graph.generate: need at least 2 nodes";
  let wanted = int_of_float (Float.round (float_of_int nodes *. degree /. 2.)) in
  let max_edges = nodes * (nodes - 1) / 2 in
  let m = max (nodes - 1) (min wanted max_edges) in
  let b = Topology.builder nodes in
  let present = Hashtbl.create (2 * m) in
  let key u v = (min u v * nodes) + max u v in
  let add u v =
    Hashtbl.add present (key u v) ();
    ignore (Topology.add_p2p ~cost ~delay b u v)
  in
  (* Random spanning tree: attach each node (in random order) to a random
     already-placed node. *)
  let order = Array.init nodes Fun.id in
  Prng.shuffle prng order;
  for i = 1 to nodes - 1 do
    let u = order.(i) in
    let v = order.(Prng.int prng i) in
    add u v
  done;
  let count = ref (nodes - 1) in
  while !count < m do
    let u = Prng.int prng nodes and v = Prng.int prng nodes in
    if u <> v && not (Hashtbl.mem present (key u v)) then begin
      add u v;
      incr count
    end
  done;
  Topology.freeze b

let pick_members ~prng ~nodes ~count =
  if count < 0 || count > nodes then
    invalid_arg
      (Printf.sprintf "Random_graph.pick_members: cannot pick %d members among %d nodes" count
         nodes);
  Prng.sample prng count nodes
