type tree = {
  src : Topology.node;
  dist : int array;
  parent : int array;
  via : int array;
}

type scratch = {
  s_dist : int array;
  s_parent : int array;
  s_via : int array;
  s_heap : Pim_util.Indexed_heap.t;
}

let make_scratch ~n =
  if n < 0 then invalid_arg "Spt.make_scratch: negative size";
  {
    s_dist = Array.make n max_int;
    s_parent = Array.make n (-1);
    s_via = Array.make n (-1);
    s_heap = Pim_util.Indexed_heap.create ~capacity:n;
  }

let scratch_size s = Array.length s.s_dist

(* Dijkstra with an indexed heap: each node is pushed/decreased while grey
   and popped exactly once, so no [done_] marks or lazy deletions are
   needed.  The heap breaks key ties on the node id, which preserves the
   deterministic settle order the lazy-deletion implementation had. *)
let single_source_into ?(usable = fun _ _ _ -> true) scratch topo src =
  let n = Topology.n_nodes topo in
  if scratch_size scratch <> n then
    invalid_arg
      (Printf.sprintf "Spt.single_source_into: scratch for %d nodes, topology has %d"
         (scratch_size scratch) n);
  let dist = scratch.s_dist and parent = scratch.s_parent and via = scratch.s_via in
  let heap = scratch.s_heap in
  Array.fill dist 0 n max_int;
  Array.fill parent 0 n (-1);
  Array.fill via 0 n (-1);
  Pim_util.Indexed_heap.clear heap;
  dist.(src) <- 0;
  Pim_util.Indexed_heap.insert heap src ~key:0;
  (* Loops rather than closures over the adjacency arrays, and take_min
     rather than pop_min: the search allocates nothing. *)
  let rec loop () =
    let u = Pim_util.Indexed_heap.take_min heap in
    if u >= 0 then begin
      let d = dist.(u) and ifaces = Topology.ifaces topo u in
      for i = 0 to Array.length ifaces - 1 do
        let lid = snd ifaces.(i) in
        let l = Topology.link topo lid in
        let nd = d + l.Topology.cost and ends = l.Topology.ends in
        for j = 0 to Array.length ends - 1 do
          let v = ends.(j) in
          if v <> u && usable u v lid && nd < dist.(v) then begin
            dist.(v) <- nd;
            parent.(v) <- u;
            via.(v) <- lid;
            Pim_util.Indexed_heap.push heap v ~key:nd
          end
        done
      done;
      loop ()
    end
  in
  loop ();
  { src; dist; parent; via }

let single_source ?usable topo src =
  single_source_into ?usable (make_scratch ~n:(Topology.n_nodes topo)) topo src

let distance t v = if t.dist.(v) = max_int then None else Some t.dist.(v)

let path t v =
  if t.dist.(v) = max_int then None
  else begin
    let rec up v acc =
      if v = t.src || t.parent.(v) < 0 then v :: acc else up t.parent.(v) (v :: acc)
    in
    Some (up v [])
  end

let first_hop topo t =
  let n = Topology.n_nodes topo in
  let hop = Array.make n (-1) and hop_iface = Array.make n (-1) in
  (* Walk parent pointers once per node, memoizing the answer. *)
  let rec resolve v =
    let p = t.parent.(v) in
    if hop.(v) < 0 && p >= 0 then
      if p = t.src then begin
        hop.(v) <- v;
        hop_iface.(v) <- Topology.iface_of_link topo t.src t.via.(v)
      end
      else begin
        resolve p;
        hop.(v) <- hop.(p);
        hop_iface.(v) <- hop_iface.(p)
      end
  in
  for v = 0 to n - 1 do
    resolve v
  done;
  (hop, hop_iface)

let tree_edges t ~members =
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  let rec up v =
    if v <> t.src && not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      let p = t.parent.(v) in
      if p >= 0 then begin
        edges := (p, v, t.via.(v)) :: !edges;
        up p
      end
    end
  in
  List.iter (fun m -> if t.dist.(m) <> max_int then up m) members;
  List.rev !edges

let all_pairs_into scratch topo out =
  let n = Topology.n_nodes topo in
  if Array.length out <> n then invalid_arg "Spt.all_pairs_into: matrix has wrong row count";
  for u = 0 to n - 1 do
    let t = single_source_into scratch topo u in
    if Array.length out.(u) <> n then
      invalid_arg "Spt.all_pairs_into: matrix has wrong column count";
    Array.blit t.dist 0 out.(u) 0 n
  done

let all_pairs topo =
  let n = Topology.n_nodes topo in
  let scratch = make_scratch ~n in
  let out = Array.init n (fun _ -> Array.make n max_int) in
  all_pairs_into scratch topo out;
  out
