(* Dijkstra as a plain O(n^2) selection: settle the unsettled reachable
   node with the least (distance, id), then relax its edges in interface
   order, taking only strict improvements.  This is the settle order and
   parent rule the indexed-heap implementation had, kept as the reference
   the bucket-queue [Spt] is checked against (test_graph's
   [spt-differential] property). *)

module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt

let single_source ?(usable = fun _ _ _ -> true) topo src =
  let n = Topology.n_nodes topo in
  let dist = Array.make n max_int and parent = Array.make n (-1) and via = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0;
  let rec loop () =
    let next = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < max_int && (!next < 0 || dist.(v) < dist.(!next)) then
        next := v
    done;
    let u = !next in
    if u >= 0 then begin
      settled.(u) <- true;
      Array.iter
        (fun (_, lid) ->
          let l = Topology.link topo lid in
          let nd = dist.(u) + l.Topology.cost in
          Array.iter
            (fun v ->
              if v <> u && usable u v lid && nd < dist.(v) then begin
                dist.(v) <- nd;
                parent.(v) <- u;
                via.(v) <- lid
              end)
            l.Topology.ends)
        (Topology.ifaces topo u);
      loop ()
    end
  in
  loop ();
  { Spt.src; dist; parent; via }
