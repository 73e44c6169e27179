module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Net = Pim_sim.Net
module Bitset = Pim_util.Bitset
module Vec = Pim_util.Vec

(* One router's routes: its shortest-path tree as unboxed arrays indexed
   by destination, -1 where there is no route.  The first hop toward a
   destination is found on lookup, by walking parents up to the root. *)
type table = {
  dist : int array;  (* max_int when unreachable *)
  parent : int array;
  via : int array;  (* link from [parent] *)
  asked : Bitset.t;  (* destinations the router has looked up *)
}

type t = {
  topo : Topology.t;
  usable : Topology.node -> Topology.node -> Topology.link_id -> bool;
  scratch : Spt.scratch;
  tables : table option array;  (* per router, built on its first lookup *)
  subs : (unit -> unit) Vec.t array;  (* per router *)
  mutable dijkstras : int;
}

let build t u ~asked =
  let tree = Spt.single_source_into ~usable:t.usable t.scratch t.topo u in
  t.dijkstras <- t.dijkstras + 1;
  {
    dist = Array.copy tree.Spt.dist;
    parent = Array.copy tree.Spt.parent;
    via = Array.copy tree.Spt.via;
    asked;
  }

(* The first router on the path from [tb]'s root to [d], -1 for the root
   and unreachable nodes: the node on that path whose parent is the root,
   the only node at distance 0. *)
let hop tb d =
  if tb.parent.(d) < 0 then -1
  else begin
    let v = ref d in
    while tb.dist.(tb.parent.(!v)) > 0 do
      v := tb.parent.(!v)
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
  let earlier a lid b =
    let p = tb.parent.(b) in
    tb.dist.(a) < tb.dist.(p)
    || (tb.dist.(a) = tb.dist.(p)
       && (a < p
          || (a = p
             && Topology.iface_of_link t.topo a lid < Topology.iface_of_link t.topo a tb.via.(b))))
  in
  let edge_holds lid cost a b =
    if tb.via.(b) = lid && tb.parent.(b) = a then t.usable a b lid
    else if not (t.usable a b lid) || tb.dist.(a) = max_int then true
    else
      let d = tb.dist.(a) + cost in
      d > tb.dist.(b) || (d = tb.dist.(b) && (tb.parent.(b) < 0 || not (earlier a lid b)))
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
let same_answers a b =
  let same = ref true in
  Bitset.iter
    (fun d ->
      let ha = hop a d and hb = hop b d in
      if ha <> hb || a.dist.(d) <> b.dist.(d) || (ha >= 0 && a.via.(ha) <> b.via.(hb)) then
        same := false)
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
          if not (same_answers tb fresh) then changed := u :: !changed
        end
      | Some _ | None -> ())
    t.tables;
  List.iter (fun u -> Vec.iter (fun f -> f ()) t.subs.(u)) (List.rev !changed)

let refresh t = reconcile t ~stale:(fun _ -> true)

let create net =
  let topo = Net.topo net in
  let n = Topology.n_nodes topo in
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
  let next_hop addr =
    match Rib.resolve addr with
    | None -> None
    | Some d when d = u -> None
    | Some d ->
      let tb = lookup t u d in
      let h = hop tb d in
      if h < 0 then None else Some (Topology.iface_of_link t.topo u tb.via.(h), h)
  in
  let distance addr =
    match Rib.resolve addr with
    | None -> None
    | Some d when d = u -> Some 0
    | Some d ->
      let dd = (lookup t u d).dist.(d) in
      if dd = max_int then None else Some dd
  in
  let subscribe f = Vec.push t.subs.(u) f in
  { Rib.node = u; next_hop; distance; subscribe }

let distance_matrix t = Array.init (Topology.n_nodes t.topo) (fun u -> (table t u).dist)

let dijkstras t = t.dijkstras
