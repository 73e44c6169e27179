module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Engine = Pim_sim.Engine
module Trace = Pim_sim.Trace
module Event = Pim_sim.Event
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Mdata = Pim_mcast.Mdata
module Fwd = Pim_mcast.Fwd

module GroupSet = Set.Make (Group)

type lsa = {
  origin : Topology.node;
  seq : int;
  groups : Group.t list;
}

type Packet.payload += Membership_lsa of lsa

(* An LSDB slot no LSA has filled yet (or a restart emptied): origin
   [Topology.no_node], so any received LSA is fresher. *)
let no_lsa = { origin = Topology.no_node; seq = 0; groups = [] }

let () =
  Packet.register_printer (function
    | Membership_lsa l ->
      Some (Printf.sprintf "mospf-lsa origin=%d seq=%d (%d groups)" l.origin l.seq (List.length l.groups))
    | _ -> None)

type plan = {
  iif : Topology.iface option;  (** None when this router is the source's first hop *)
  olist : Topology.iface list;
  member_here : bool;
  on_tree : bool;
}

(* What a deployment's routers share: the shortest-path tree from each
   source router over the live topology (computed on first use, dropped
   on every network change), and the visit marks of [compute_plan]'s
   walk, fresh for each walk by bumping [walk]. *)
type shared = {
  trees : Spt.tree option array;
  visited : int array;
  mutable walk : int;
}

let make_shared n = { trees = Array.make n None; visited = Array.make n 0; walk = 0 }

let source_tree sh net src =
  match sh.trees.(src) with
  | Some tree -> tree
  | None ->
    let usable u v lid = Net.link_up net lid && Net.node_up net u && Net.node_up net v in
    let tree = Spt.single_source ~usable (Net.topo net) src in
    sh.trees.(src) <- Some tree;
    tree

(* Plans keyed by [plan_key src g]: an int, so a lookup neither boxes
   the group nor hashes a tuple polymorphically. *)
module Plan_cache = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let plan_key src g =
  (src lsl 32) lor (Int32.to_int (Addr.to_int32 (Group.to_addr g)) land 0xFFFF_FFFF)

type t = {
  node : Topology.node;
  addr : Addr.t;
  net : Net.t;
  eng : Engine.t;
  trace : Trace.t option;
  shared : shared;
  lsdb : lsa array;
  cache : plan Plan_cache.t;
  counters : Counters.t;
  mutable own_seq : int;
  mutable local_groups : GroupSet.t;
  local_cbs : (Packet.t -> unit) Pim_util.Vec.t;
  mutable local_seq : int;
}

let node t = t.node

let tracing t = Trace.active t.trace

let membership_entries t =
  Array.fold_left
    (fun acc l -> acc + List.length l.groups)
    (GroupSet.cardinal t.local_groups) t.lsdb

let rec mem_group g = function [] -> false | x :: rest -> Group.equal x g || mem_group g rest

let knows_member t u g =
  if u = t.node then GroupSet.mem g t.local_groups else mem_group g t.lsdb.(u).groups

(* One packet, sent on every interface but [except] ([Topology.no_iface]
   for none): packets are immutable, so the copies share it. *)
let flood t ~except pkt =
  let ifaces = Topology.ifaces (Net.topo t.net) t.node in
  for k = 0 to Array.length ifaces - 1 do
    let iface, _ = ifaces.(k) in
    if iface <> except then begin
      Counters.(incr t.counters ~node:t.node Lsa_sent);
      Net.send t.net t.node ~iface pkt
    end
  done

(* Plans depend only on membership and the live topology: only a new
   origin, a membership change or a topology change drops them, so a
   periodic refresh that changes nothing keeps them. *)
let originate_lsa t =
  t.own_seq <- t.own_seq + 1;
  let lsa_v = { origin = t.node; seq = t.own_seq; groups = GroupSet.elements t.local_groups } in
  flood t ~except:Topology.no_iface
    (Packet.unicast ~src:t.addr ~dst:Addr.all_pim_routers
       ~size:(12 + (4 * List.length lsa_v.groups))
       (Membership_lsa lsa_v))

(* [pkt] is the received packet carrying [l]. *)
let install_lsa t ~iface pkt (l : lsa) =
  (* An echo of our own LSA flooded back around a cycle carries nothing we
     don't already know (local_groups is authoritative); installing it
     would leave a stale self-entry in the database after the final
     origination.  Real OSPF likewise special-cases self-originated
     LSAs.  The database keeps the received record itself, so every
     router's slot for [l.origin] holds the same LSA, and the re-flood
     sends the received packet under this router's address: the same
     payload, size and destination, so the same bytes on the wire. *)
  if l.origin <> t.node then begin
    let held = t.lsdb.(l.origin) in
    if held.origin = Topology.no_node || l.seq > held.seq then begin
      t.lsdb.(l.origin) <- l;
      if held.origin = Topology.no_node || not (List.equal Group.equal held.groups l.groups) then
        Plan_cache.reset t.cache;
      flood t ~except:iface { pkt with Packet.src = t.addr }
    end
  end

(* Compute this router's part of the source-rooted shortest-path tree to
   the group members — the per-(source, group) Dijkstra MOSPF performs on
   demand ("the processing cost ... performed to compute the delivery
   trees", section 1.1).  Every router of a deployment would run the same
   Dijkstra from the same source over the same live topology, so the
   deployment runs it once per source and shares the tree; each router
   still pays (and counts) one SPF run per plan.  The router's part is
   read off the tree by walking parent pointers up from every member it
   knows of, in node-id order, stopping where an earlier walk already
   passed: the links on those walks are the delivery tree. *)
let compute_plan t src_router g =
  Counters.(incr t.counters ~node:t.node Spf_runs);
  let sh = t.shared in
  let tree = source_tree sh t.net src_router in
  let topo = Net.topo t.net in
  sh.walk <- sh.walk + 1;
  let walk = sh.walk and visited = sh.visited in
  let iif = ref None and olist = ref [] in
  for m = 0 to Array.length visited - 1 do
    if tree.Spt.dist.(m) <> max_int && knows_member t m g then begin
      let v = ref m in
      while !v <> src_router && visited.(!v) <> walk do
        let c = !v in
        visited.(c) <- walk;
        let p = tree.Spt.parent.(c) in
        if c = t.node then iif := Topology.iface_of_link_opt topo t.node tree.Spt.via.(c)
        else if p = t.node then begin
          match Topology.iface_of_link_opt topo t.node tree.Spt.via.(c) with
          | Some i -> olist := i :: !olist
          | None -> ()
        end;
        v := p
      done
    end
  done;
  let member_here = GroupSet.mem g t.local_groups in
  let on_tree = t.node = src_router || !iif <> None in
  { iif = !iif; olist = List.sort_uniq Int.compare !olist; member_here; on_tree }

let ev t event =
  match t.trace with None -> () | Some trc -> Trace.emit trc ~node:t.node event

let plan_for t src_router g =
  let key = plan_key src_router g in
  match Plan_cache.find t.cache key with
  | p -> p
  | exception Not_found ->
    let p = compute_plan t src_router g in
    Plan_cache.replace t.cache key p;
    (* The on-demand Dijkstra result is MOSPF's forwarding state; caching
       it is this protocol's analogue of a PIM entry install. *)
    if tracing t then
      ev t
        (Event.Entry_install
           {
             route =
               {
                 Event.group = Group.to_string g;
                 source = Some (Addr.to_string (Addr.router src_router));
               };
           });
    p

(* A plan's key back as its (S,G) row: S is the source router's address,
   as its [Entry_install] event names it. *)
let row key p =
  let group = Group.of_addr_exn (Addr.of_int32 (Int32.of_int (key land 0xFFFF_FFFF))) in
  let e = Fwd.make_sg ~group ~source:(Addr.router (key lsr 32)) ~iif:p.iif ~expires:infinity () in
  let oif iface = { Fwd.iface; expires = infinity; local = iface < 0 } in
  e.Fwd.oifs <- List.map oif (if p.member_here then -1 :: p.olist else p.olist);
  e

let rows t =
  Plan_cache.fold (fun key p acc -> if p.on_tree then row key p :: acc else acc) t.cache []
  |> List.sort Fwd.compare_entry

let local_deliver t pkt =
  Counters.(incr t.counters ~node:t.node Data_delivered_local);
  (match pkt.Packet.dst with
  | Packet.Multicast g ->
    if tracing t then
      ev t
        (Event.Pkt_deliver
           {
             src = Addr.to_string pkt.Packet.src;
             group = Group.to_string g;
             iface = -1;
           })
  | Packet.Unicast _ -> ());
  for i = 0 to Pim_util.Vec.length t.local_cbs - 1 do
    let cb = Pim_util.Vec.get t.local_cbs i in
    cb pkt
  done

(* Top-level recursion rather than [List.iter] with a closure over the
   packet: forwarding allocates nothing. *)
let rec send_all t pkt = function
  | i :: rest ->
    Counters.(incr t.counters ~node:t.node Data_forwarded);
    Net.forward t.net t.node ~iface:i pkt;
    send_all t pkt rest
  | [] -> ()

(* Forward on the plan's olist and deliver locally, as long as the TTL
   lets the packet go a hop further: the other protocols deliver
   nothing from a packet that has run out either. *)
let forward t pkt p =
  if Net.ttl t.net pkt > 1 then begin
    send_all t pkt p.olist;
    if p.member_here then local_deliver t pkt
  end

(* The router whose subnet (or self) [pkt]'s source is, [Topology.no_node]
   for neither: a per-hop test that builds no option. *)
let src_router_of pkt =
  let r = Addr.owner_index pkt.Packet.src in
  if r < 0 then Topology.no_node else r

let handle_data t ~iface pkt ~src_router =
  match pkt.Packet.dst with
  | Packet.Multicast g when src_router <> Topology.no_node ->
    let p = plan_for t src_router g in
    if not p.on_tree then Counters.(incr t.counters ~node:t.node Data_dropped_off_tree)
    else if t.node = src_router || (match p.iif with Some i -> i = iface | None -> false) then
      (* On the tree, or the first-hop router of the source subnetwork. *)
      forward t pkt p
    else Counters.(incr t.counters ~node:t.node Data_dropped_iif)
  | _ -> ()

let join_local t g =
  if not (GroupSet.mem g t.local_groups) then begin
    t.local_groups <- GroupSet.add g t.local_groups;
    Plan_cache.reset t.cache;
    if tracing t then ev t (Event.Local_member { group = Group.to_string g; iface = -1 });
    originate_lsa t
  end

let leave_local t g =
  if GroupSet.mem g t.local_groups then begin
    t.local_groups <- GroupSet.remove g t.local_groups;
    Plan_cache.reset t.cache;
    originate_lsa t
  end

let on_local_data t f = Pim_util.Vec.push t.local_cbs f

let local_source_addr ?(host = 1) t = Addr.host ~router:t.node host

let send_local_data t ~group ?host ?size () =
  let pkt =
    Mdata.make ~src:(local_source_addr ?host t) ~group ~seq:t.local_seq
      ~sent_at:(Engine.now t.eng) ?size ()
  in
  t.local_seq <- t.local_seq + 1;
  forward t pkt (plan_for t t.node group)

let handle_packet t ~iface pkt =
  match pkt.Packet.payload with
  | Membership_lsa l -> install_lsa t ~iface pkt l
  | Mdata.Data _ -> (
    let src_router = src_router_of pkt in
    if src_router = t.node then
      (* Data from a directly attached host: act as the source's first
         hop. *)
      match pkt.Packet.dst with
      | Packet.Multicast g -> forward t pkt (plan_for t t.node g)
      | Packet.Unicast _ -> ()
    else handle_data t ~iface pkt ~src_router)
  | _ -> ()

(* Crash-and-reboot: the link-state database and forwarding cache are
   lost; local memberships survive (attached hosts re-report).  The own
   LSA is re-originated immediately — with a higher sequence number, so
   neighbours accept it — but other routers' membership is only relearned
   from their next flooded LSA, which is why deployments that exercise
   restarts need [lsa_refresh] (real OSPF re-floods every LSRefreshTime). *)
let restart t =
  if tracing t then ev t Event.Restart;
  Array.fill t.lsdb 0 (Array.length t.lsdb) no_lsa;
  Plan_cache.reset t.cache;
  originate_lsa t

let create ?trace ?lsa_refresh ~shared ~net node =
  let t =
    {
      node;
      addr = Addr.router node;
      net;
      eng = Net.engine net;
      trace;
      shared;
      lsdb = Array.make (Topology.n_nodes (Net.topo net)) no_lsa;
      cache = Plan_cache.create 64;
      counters = Net.counters net;
      own_seq = 0;
      local_groups = GroupSet.empty;
      local_cbs = Pim_util.Vec.create ();
      local_seq = 0;
    }
  in
  Net.set_handler net node (fun ~iface pkt -> handle_packet t ~iface pkt);
  Net.on_link_change net (fun _ _ -> Plan_cache.reset t.cache);
  (match lsa_refresh with
  | None -> ()
  | Some period ->
    if period <= 0. then invalid_arg "Mospf.Router.create: lsa_refresh must be > 0";
    let frac = float_of_int (node mod 16) /. 16. in
    ignore
      (Engine.every t.eng
         ~start:(period *. (0.3 +. (0.5 *. frac)))
         ~interval:period
         (fun () -> if GroupSet.is_empty t.local_groups then () else originate_lsa t)));
  t

module Deployment = struct
  type router = t

  type nonrec t = { routers : router array }

  let create ?trace ?lsa_refresh net =
    let n = Topology.n_nodes (Net.topo net) in
    let shared = make_shared n in
    (* Heard before any router's [on_link_change]: by the time a router
       drops its cached plans the stale trees are already gone. *)
    Net.on_change net (fun _ -> Array.fill shared.trees 0 n None);
    { routers = Array.init n (fun u -> create ?trace ?lsa_refresh ~shared ~net u) }

  let router t u = t.routers.(u)

  let total_membership_entries t =
    Array.fold_left (fun acc r -> acc + membership_entries r) 0 t.routers
end
