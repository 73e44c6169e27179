module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Net = Pim_sim.Net
module Bitset = Pim_util.Bitset
module Vec = Pim_util.Vec

(* One router's routes: its shortest-path tree, one packed word per
   destination (see [create] for the fields).  The first hop toward a
   destination is found on lookup, by walking parents up to the root. *)
type table = {
  words : int array;
  asked : Bitset.t;  (* destinations the router has looked up *)
}

type t = {
  topo : Topology.t;
  usable : Topology.node -> Topology.node -> Topology.link_id -> bool;
  scratch : Spt.scratch;
  tables : table option array;  (* per router, built on its first lookup *)
  subs : (unit -> unit) Vec.t array;  (* per router *)
  mutable dijkstras : int;
  node_bits : int;  (* width of parent + 1, the lowest field *)
  node_mask : int;
  link_mask : int;  (* via + 1, above it *)
  dist_shift : int;  (* distance, the rest; all ones when unreachable *)
  unreachable : int;
}

(* The fields of a packed word, in [Spt.tree]'s terms: [max_int] for an
   unreachable distance, -1 for no parent or link. *)
let[@inline] parent t w = (w land t.node_mask) - 1
let[@inline] via t w = ((w lsr t.node_bits) land t.link_mask) - 1

let[@inline] dist t w =
  let d = w lsr t.dist_shift in
  if d = t.unreachable then max_int else d

let build t u ~asked =
  let tree = Spt.single_source_into ~usable:t.usable t.scratch t.topo u in
  t.dijkstras <- t.dijkstras + 1;
  let n = Array.length tree.Spt.dist in
  let words = Array.make n 0 in
  for d = 0 to n - 1 do
    let dd = tree.Spt.dist.(d) in
    words.(d) <-
      ((if dd = max_int then t.unreachable else dd) lsl t.dist_shift)
      lor ((tree.Spt.via.(d) + 1) lsl t.node_bits)
      lor (tree.Spt.parent.(d) + 1)
  done;
  { words; asked }

(* The first router on the path from [tb]'s root to [d], -1 for the root
   and unreachable nodes: the node on that path whose parent is the root,
   the only node at distance 0. *)
let hop t tb d =
  let words = tb.words in
  let p = parent t words.(d) in
  if p < 0 then -1
  else begin
    let v = ref d and p = ref p in
    (* A parent is reachable, so its raw distance field is its distance. *)
    while words.(!p) lsr t.dist_shift > 0 do
      v := !p;
      p := parent t words.(!p)
    done;
    !v
  end

let table t u =
  match t.tables.(u) with
  | Some tb -> tb
  | None ->
    let tb = build t u ~asked:(Bitset.create (Topology.n_nodes t.topo)) in
    t.tables.(u) <- Some tb;
    tb

(* Whether [tb], built before [lids] changed, is still what Dijkstra would
   build now.  Dijkstra settles nodes by (distance, id), since every link
   costs at least 1, and gives each node the first parent, in settle
   order and then interface order, that reaches it at its distance.  So
   the tree stands unless one of its edges over [lids] died, or a live
   edge over [lids] reaches a node sooner than its parent, or as soon
   but from earlier in that order. *)
let still_valid t tb lids =
  let dist_of v = dist t tb.words.(v) and parent_of v = parent t tb.words.(v) in
  let via_of v = via t tb.words.(v) in
  let earlier a lid b =
    let p = parent_of b in
    dist_of a < dist_of p
    || (dist_of a = dist_of p
       && (a < p
          || (a = p
             && Topology.iface_of_link t.topo a lid < Topology.iface_of_link t.topo a (via_of b))))
  in
  let edge_holds lid cost a b =
    if via_of b = lid && parent_of b = a then t.usable a b lid
    else if not (t.usable a b lid) || dist_of a = max_int then true
    else
      let d = dist_of a + cost in
      d > dist_of b || (d = dist_of b && (parent_of b < 0 || not (earlier a lid b)))
  in
  List.for_all
    (fun lid ->
      let l = Topology.link t.topo lid in
      Array.for_all
        (fun a -> Array.for_all (fun b -> a = b || edge_holds lid l.Topology.cost a b) l.Topology.ends)
        l.Topology.ends)
    lids

(* Same distance and first hop toward every destination [a] asked about.
   The interface toward a hop is the router's interface on the hop's [via]
   link, so equal hops and links mean equal interfaces. *)
let same_answers t a b =
  let same = ref true in
  Bitset.iter
    (fun d ->
      let ha = hop t a d and hb = hop t b d in
      if
        ha <> hb
        || dist t a.words.(d) <> dist t b.words.(d)
        || (ha >= 0 && via t a.words.(ha) <> via t b.words.(hb))
      then same := false)
    a.asked;
  !same

(* Rebuild every table [stale] picks, then notify, in router order, each
   router whose answer toward a destination it asked about changed.  A
   router nobody listens to just drops its table until its next lookup. *)
let reconcile t ~stale =
  let changed = ref [] in
  Array.iteri
    (fun u slot ->
      match slot with
      | Some tb when stale tb ->
        if Vec.length t.subs.(u) = 0 then t.tables.(u) <- None
        else begin
          let fresh = build t u ~asked:tb.asked in
          t.tables.(u) <- Some fresh;
          if not (same_answers t tb fresh) then changed := u :: !changed
        end
      | Some _ | None -> ())
    t.tables;
  List.iter (fun u -> Vec.iter (fun f -> f ()) t.subs.(u)) (List.rev !changed)

let refresh t = reconcile t ~stale:(fun _ -> true)

(* Bits to write every value in [0, v]. *)
let bits v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  go 0

(* A packed word holds, from the low end, parent + 1 in [bits n], via + 1
   in [bits n_links], and the distance in the rest, all ones when
   unreachable.  Every reachable distance is at most [max_cost * (n - 1)],
   which must stay below all ones. *)
let create net =
  let topo = Net.topo net in
  let n = Topology.n_nodes topo in
  let link_bits = bits (Topology.n_links topo) and node_bits = bits n in
  let dist_shift = link_bits + node_bits in
  let unreachable = -1 lsr dist_shift in
  if n > 1 && Topology.max_cost topo > (unreachable - 1) / (n - 1) then
    invalid_arg
      (Printf.sprintf "Static.create: distances up to %d x %d exceed the %d-bit distance field"
         (Topology.max_cost topo) (n - 1) (Sys.int_size - dist_shift));
  let t =
    {
      topo;
      (* One closure of arity 3, so Dijkstra's per-edge calls allocate
         nothing. *)
      usable = (fun u v lid -> Net.link_up net lid && Net.node_up net u && Net.node_up net v);
      scratch = Spt.make_scratch ~n;
      tables = Array.make n None;
      subs = Array.init n (fun _ -> Vec.create ());
      dijkstras = 0;
      node_bits;
      node_mask = (1 lsl node_bits) - 1;
      link_mask = (1 lsl link_bits) - 1;
      dist_shift;
      unreachable;
    }
  in
  Net.on_change net (fun lids -> reconcile t ~stale:(fun tb -> not (still_valid t tb lids)));
  t

(* The table of router [u], noting that it asked about [d]. *)
let lookup t u d =
  let tb = table t u in
  Bitset.add tb.asked d;
  tb

let rib t u =
  (* Routers outside the topology read as unreachable. *)
  let n = Array.length t.tables in
  let route addr =
    let d = Pim_net.Addr.owner_index addr in
    if d < 0 || d = u || d >= n then Topology.no_iface
    else
      let tb = lookup t u d in
      let h = hop t tb d in
      if h < 0 then Topology.no_iface
      else Rib.pack_route ~iface:(Topology.iface_of_link t.topo u (via t tb.words.(h))) ~node:h
  in
  let distance addr =
    match Rib.resolve addr with
    | Some d when d = u -> Some 0
    | Some d when d < n ->
      let dd = dist t (lookup t u d).words.(d) in
      if dd = max_int then None else Some dd
    | Some _ | None -> None
  in
  let subscribe f = Vec.push t.subs.(u) f in
  { Rib.node = u; route; distance; subscribe }

let dijkstras t = t.dijkstras
