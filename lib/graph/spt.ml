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
  s_next : int array;  (* the next and previous grey node in the same bucket, -1 at the ends *)
  s_prev : int array;
  mutable s_heads : int array;  (* first grey node of each bucket, -1 if empty *)
}

let make_scratch ~n =
  if n < 0 then invalid_arg "Spt.make_scratch: negative size";
  {
    s_dist = Array.make n max_int;
    s_parent = Array.make n (-1);
    s_via = Array.make n (-1);
    s_next = Array.make n (-1);
    s_prev = Array.make n (-1);
    s_heads = [||];
  }

let scratch_size s = Array.length s.s_dist

(* At least [k] buckets, a power of two so a distance maps to its bucket
   with a mask. *)
let buckets scratch k =
  if Array.length scratch.s_heads < k then begin
    let size = ref 1 in
    while !size < k do
      size := 2 * !size
    done;
    scratch.s_heads <- Array.make !size (-1)
  end;
  scratch.s_heads

let push heads next prev b v =
  let h = heads.(b) in
  next.(v) <- h;
  prev.(v) <- -1;
  if h >= 0 then prev.(h) <- v;
  heads.(b) <- v

let unlink heads next prev b v =
  let p = prev.(v) and nx = next.(v) in
  if p >= 0 then next.(p) <- nx else heads.(b) <- nx;
  if nx >= 0 then prev.(nx) <- p

(* Dijkstra with a bucket queue (Dial's algorithm).  Every link costs at
   least 1 and at most [max_cost], so the grey nodes all lie within
   [max_cost] of the distance being settled, and a ring of more than
   [max_cost] buckets holds each distance in its own bucket.  Nodes of
   one distance settle in any order, so the parent rule is applied on
   relaxation instead: a node's parent is the first node in (distance,
   id) order that reaches it at its final distance, over that node's
   first interface that does.  An offer at a node's current distance
   therefore replaces its parent only if it comes from a node at the
   parent's distance with a smaller id; a second offer from the parent
   itself comes over a later interface and loses. *)
let single_source_into ?(usable = fun _ _ _ -> true) scratch topo src =
  let n = Topology.n_nodes topo in
  if scratch_size scratch <> n then
    invalid_arg
      (Printf.sprintf "Spt.single_source_into: scratch for %d nodes, topology has %d"
         (scratch_size scratch) n);
  let dist = scratch.s_dist and parent = scratch.s_parent and via = scratch.s_via in
  let next = scratch.s_next and prev = scratch.s_prev in
  let heads = buckets scratch (Topology.max_cost topo + 1) in
  let mask = Array.length heads - 1 in
  let { Topology.edge_start; edge_nbr; edge_link; edge_cost } = Topology.adjacency topo in
  Array.fill dist 0 n max_int;
  Array.fill parent 0 n (-1);
  Array.fill via 0 n (-1);
  Array.fill heads 0 (mask + 1) (-1);
  dist.(src) <- 0;
  push heads next prev 0 src;
  (* Loops over the flat adjacency rather than closures: the search
     allocates nothing. *)
  let grey = ref 1 and d = ref 0 in
  while !grey > 0 do
    let b = !d land mask in
    while heads.(b) >= 0 do
      let u = heads.(b) in
      unlink heads next prev b u;
      decr grey;
      let du = !d in
      for k = edge_start.(u) to edge_start.(u + 1) - 1 do
        let v = edge_nbr.(k) in
        let nd = du + edge_cost.(k) and dv = dist.(v) in
        if nd < dv then begin
          let lid = edge_link.(k) in
          if usable u v lid then begin
            if dv = max_int then incr grey else unlink heads next prev (dv land mask) v;
            dist.(v) <- nd;
            parent.(v) <- u;
            via.(v) <- lid;
            push heads next prev (nd land mask) v
          end
        end
        else if nd = dv && u < parent.(v) && dist.(parent.(v)) = du then begin
          let lid = edge_link.(k) in
          if usable u v lid then begin
            parent.(v) <- u;
            via.(v) <- lid
          end
        end
      done
    done;
    incr d
  done;
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
