module Topology = Pim_graph.Topology
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
module Rib = Pim_routing.Rib

type config = {
  echo_interval : float;
  child_timeout : float;
  parent_timeout : float;
  rejoin_delay : float;
}

let default_config =
  { echo_interval = 30.; child_timeout = 90.; parent_timeout = 90.; rejoin_delay = 5. }

(* Keepalive timeouts must exceed echo_interval plus a worst-case echo
   round trip (wide-area links in the scenarios have up to 5 s delay). *)
let fast_config =
  { echo_interval = 3.; child_timeout = 25.; parent_timeout = 25.; rejoin_delay = 0.5 }

type body = {
  group : Group.t;
  core : Addr.t;
  origin : Topology.node;
  target : Addr.t;
}

type Packet.payload +=
  | Join_request of body
  | Join_ack of body
  | Echo_request of body
  | Echo_reply of body
  | Quit of body
  | Encap of Packet.t

let () =
  Packet.register_printer (function
    | Join_request b -> Some (Printf.sprintf "cbt-join %s" (Group.to_string b.group))
    | Join_ack b -> Some (Printf.sprintf "cbt-ack %s" (Group.to_string b.group))
    | Echo_request b -> Some (Printf.sprintf "cbt-echo-req %s" (Group.to_string b.group))
    | Echo_reply b -> Some (Printf.sprintf "cbt-echo-rep %s" (Group.to_string b.group))
    | Quit b -> Some (Printf.sprintf "cbt-quit %s" (Group.to_string b.group))
    | Encap inner -> Some (Printf.sprintf "cbt-encap [%s]" (Packet.payload_to_string inner.Packet.payload))
    | _ -> None)

let is_encapsulated_data pkt =
  match pkt.Packet.payload with
  | Encap inner -> Pim_mcast.Mdata.is_data inner
  | _ -> false

(* A group's tree state is its "(*,G)" row in [fib]: [rp] the core, [iif]
   the parent interface ([None] at the core), one oif per child with the
   child's timer as its [expires], and a [local] oif on [local_iface] while
   a member is attached.  The rest of the join state rides in [ext]. *)
type tree = {
  up : Topology.node;
  mutable confirmed : bool;
  mutable pending : Topology.iface list;
  mutable join_outstanding : bool;
  mutable parent_deadline : float;
}

type Fwd.ext += Tree of tree

type t = {
  node : Topology.node;
  addr : Addr.t;
  net : Net.t;
  eng : Engine.t;
  rib : Rib.t;
  core_of : Group.t -> Addr.t option;
  cfg : config;
  trace : Trace.t option;
  fib : Fwd.t;
  counters : Counters.t;
  local_cbs : (Packet.t -> unit) Pim_util.Vec.t;
  mutable local_seq : int;
  (* Groups with directly-connected members, remembered outside [fib]
     so a restart (which wipes it) can rejoin each tree. *)
  mutable local_joined : Group.t list;
}

let local_iface = -1

let node t = t.node

let fib t = t.fib

let now t = Engine.now t.eng

let tracing t = Trace.active t.trace

let ev t event =
  match t.trace with None -> () | Some trc -> Trace.emit trc ~node:t.node event

(* Every row is made by [ensure], which attaches its tree state. *)
let tree (e : Fwd.entry) = match e.Fwd.ext with Tree r -> r | _ -> assert false

let core (e : Fwd.entry) = match e.Fwd.rp with Some c -> c | None -> assert false

let is_core t (e : Fwd.entry) = Addr.equal (core e) t.addr

let all_routers = Group.of_addr_exn Addr.all_pim_routers

let ctrl t payload = Packet.multicast ~src:t.addr ~group:all_routers ~ttl:1 ~size:20 payload

let body t (e : Fwd.entry) ~target =
  { group = e.Fwd.group; core = core e; origin = t.node; target }

let send_join t (e : Fwd.entry) =
  match e.Fwd.iif with
  | None -> ()
  | Some iface ->
    let r = tree e in
    r.join_outstanding <- true;
    Counters.(incr t.counters ~node:t.node Joins_sent);
    if tracing t then
      ev t (Event.Join { route = { Event.group = Group.to_string e.Fwd.group; source = None }; iface });
    Net.send t.net t.node ~iface (ctrl t (Join_request (body t e ~target:(Addr.router r.up))))

let ensure t g ~core =
  match Fwd.find_star t.fib g with
  | Some e -> e
  | None ->
    let parent = if Addr.equal core t.addr then None else Rib.next_hop t.rib core in
    let e = Fwd.make_star ~group:g ~rp:core ~iif:(Option.map fst parent) ~expires:infinity in
    e.Fwd.ext <-
      Tree
        {
          up = (match parent with Some (_, u) -> u | None -> Topology.no_node);
          confirmed = Addr.equal core t.addr;
          pending = [];
          join_outstanding = false;
          parent_deadline = now t +. t.cfg.parent_timeout;
        };
    Fwd.insert t.fib e;
    e

let set_local (e : Fwd.entry) = Fwd.add_oif e local_iface ~expires:infinity ~local:true

let rec live_child iface ~now = function
  | (o : Fwd.oif) :: tl ->
    if o.Fwd.iface = iface then o.Fwd.expires > now else live_child iface ~now tl
  | [] -> false

let on_tree_iface ~now (e : Fwd.entry) iface =
  live_child iface ~now e.Fwd.oifs || (Fwd.iif_is e iface && (tree e).confirmed)

(* [f x y i] for each child interface whose timer runs past [now], merged
   in ascending order with [up] (the parent interface, or [no_iface]),
   skipping [exclude] and the local pseudo interface.  Top-level recursion
   with explicit arguments: the walk allocates nothing. *)
let rec walk f x y ~now ~exclude ~up = function
  | (o : Fwd.oif) :: tl ->
    let i = o.Fwd.iface in
    if up >= 0 && up < i then f x y up;
    if i >= 0 && i <> exclude && (i = up || o.Fwd.expires > now) then f x y i;
    walk f x y ~now ~exclude ~up:(if up <= i then Topology.no_iface else up) tl
  | [] -> if up >= 0 then f x y up

let walk_tree f x y ~now ~exclude (e : Fwd.entry) =
  let up =
    match e.Fwd.iif with
    | Some i when i <> exclude && (tree e).confirmed -> i
    | _ -> Topology.no_iface
  in
  walk f x y ~now ~exclude ~up e.Fwd.oifs

let tree_ifaces ~now e =
  let acc = ref [] in
  walk_tree (fun acc () i -> acc := i :: !acc) acc () ~now ~exclude:Topology.no_iface e;
  List.rev !acc

let on_tree t g =
  match Fwd.find_star t.fib g with
  | Some e -> (tree e).confirmed || is_core t e
  | None -> false

let add_child t (e : Fwd.entry) iface =
  Fwd.add_oif e iface ~expires:(now t +. t.cfg.child_timeout) ~local:false

let send_ack t (e : Fwd.entry) iface =
  Counters.(incr t.counters ~node:t.node Acks_sent);
  Net.send t.net t.node ~iface (ctrl t (Join_ack (body t e ~target:Addr.all_pim_routers)))

let confirm t (e : Fwd.entry) =
  let r = tree e in
  if not r.confirmed then begin
    r.confirmed <- true;
    r.join_outstanding <- false;
    r.parent_deadline <- now t +. t.cfg.parent_timeout;
    if tracing t then ev t (Event.On_tree { group = Group.to_string e.Fwd.group });
    List.iter
      (fun i ->
        add_child t e i;
        send_ack t e i)
      r.pending;
    r.pending <- []
  end

let handle_join_request t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    let e = ensure t b.group ~core:b.core in
    let r = tree e in
    if r.confirmed || is_core t e then begin
      add_child t e iface;
      send_ack t e iface
    end
    else begin
      if not (List.mem iface r.pending) then r.pending <- iface :: r.pending;
      if not r.join_outstanding then send_join t e
    end
  end

let handle_join_ack t ~iface (b : body) =
  match Fwd.find_star t.fib b.group with
  | Some e when (tree e).join_outstanding && Fwd.iif_is e iface -> confirm t e
  | _ -> ()

let flush t (e : Fwd.entry) =
  Counters.(incr t.counters ~node:t.node Flushes);
  if tracing t then ev t (Event.Flush { group = Group.to_string e.Fwd.group });
  Fwd.remove t.fib e.Fwd.group None;
  if Fwd.has_local e then begin
    let g = e.Fwd.group and core = core e in
    ignore
      (Engine.schedule t.eng ~after:t.cfg.rejoin_delay (fun () ->
           (* Re-validate on fire: if the group re-attached meanwhile
              (confirmed or a join already in flight), just restore the
              local member instead of re-joining. *)
           match Fwd.find_star t.fib g with
           | Some e' when (tree e').confirmed || (tree e').join_outstanding -> set_local e'
           | _ ->
             let e' = ensure t g ~core in
             set_local e';
             let r = tree e' in
             if (not r.confirmed) && not r.join_outstanding then send_join t e'))
  end

let handle_echo_request t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    match Fwd.find_star t.fib b.group with
    | Some e when (tree e).confirmed || is_core t e ->
      (* Refresh (or re-learn) the child on this interface and answer. *)
      add_child t e iface;
      let reply = { b with origin = t.node; target = Addr.all_pim_routers } in
      Net.send t.net t.node ~iface (ctrl t (Echo_reply reply))
    | _ -> ()
  end

let handle_echo_reply t ~iface (b : body) =
  match Fwd.find_star t.fib b.group with
  | Some e ->
    let r = tree e in
    if Fwd.iif_is e iface && b.origin = r.up then
      r.parent_deadline <- now t +. t.cfg.parent_timeout
  | None -> ()

let handle_quit t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    match Fwd.find_star t.fib b.group with Some e -> Fwd.remove_oif e iface | None -> ()
  end

(* {1 Data} *)

let local_deliver t pkt =
  Counters.(incr t.counters ~node:t.node Data_delivered_local);
  for i = 0 to Pim_util.Vec.length t.local_cbs - 1 do
    let cb = Pim_util.Vec.get t.local_cbs i in
    cb pkt
  done

let send_copy t pkt i =
  Counters.(incr t.counters ~node:t.node Data_forwarded);
  Net.forward t.net t.node ~iface:i pkt

(* Copy the packet onto every tree interface but [exclude], in ascending
   interface order.  [exclude] is the arrival interface, or
   [Topology.no_iface] for data injected at this router. *)
let forward_on_tree t (e : Fwd.entry) ~exclude pkt =
  if Net.ttl t.net pkt > 1 then begin
    walk_tree send_copy t pkt ~now:(now t) ~exclude e;
    if Fwd.has_local e && exclude <> Topology.no_iface then local_deliver t pkt
  end

let send_unicast t pkt =
  match pkt.Packet.dst with
  | Packet.Multicast _ -> ()
  | Packet.Unicast dst ->
    let r = t.rib.Rib.route dst in
    if r <> Topology.no_iface then
      Net.send t.net t.node ~iface:(Rib.route_iface r) ~to_node:(Rib.route_node r) pkt

let originate t pkt =
  match pkt.Packet.dst with
  | Packet.Unicast _ -> ()
  | Packet.Multicast g -> (
    match t.core_of g with
    | None -> ()
    | Some core -> (
      match Fwd.find_star t.fib g with
      | Some e when (tree e).confirmed || is_core t e ->
        forward_on_tree t e ~exclude:Topology.no_iface pkt;
        if Fwd.has_local e then local_deliver t pkt
      | _ ->
        (* Off-tree sender: tunnel the packet to the core (CBT non-member
           sending). *)
        Counters.(incr t.counters ~node:t.node Data_encapsulated);
        if Addr.equal core t.addr then ()
        else
          send_unicast t
            (Packet.unicast ~src:t.addr ~dst:core ~size:(pkt.Packet.size + 28)
               (Encap (Net.with_ttl t.net pkt)))))

let handle_data t ~iface pkt =
  match pkt.Packet.dst with
  | Packet.Unicast _ -> ()
  | Packet.Multicast g -> (
    match Fwd.find_star t.fib g with
    | Some e when on_tree_iface ~now:(now t) e iface -> forward_on_tree t e ~exclude:iface pkt
    | _ ->
      Counters.(incr t.counters ~node:t.node Data_dropped_off_tree))

let handle_encap t inner =
  match (inner.Packet.payload, inner.Packet.dst) with
  | Mdata.Data _, Packet.Multicast g -> (
    match Fwd.find_star t.fib g with
    | Some e when is_core t e || (tree e).confirmed ->
      forward_on_tree t e ~exclude:Topology.no_iface inner;
      if Fwd.has_local e then local_deliver t inner
    | _ -> ())
  | _ -> ()

(* {1 Membership} *)

let join_local t g =
  match t.core_of g with
  | None -> if tracing t then ev t (Event.No_rp { group = Group.to_string g })
  | Some core ->
    if not (List.exists (Group.equal g) t.local_joined) then
      t.local_joined <- g :: t.local_joined;
    let e = ensure t g ~core in
    set_local e;
    let r = tree e in
    if (not r.confirmed) && (not (is_core t e)) && not r.join_outstanding then send_join t e

let leave_local t g =
  t.local_joined <- List.filter (fun g' -> not (Group.equal g g')) t.local_joined;
  match Fwd.find_star t.fib g with Some e -> Fwd.remove_oif e local_iface | None -> ()

let on_local_data t f = Pim_util.Vec.push t.local_cbs f

let local_source_addr ?(host = 1) t = Addr.host ~router:t.node host

let send_local_data t ~group ?host ?size () =
  let pkt =
    Mdata.make ~src:(local_source_addr ?host t) ~group ~seq:t.local_seq ~sent_at:(now t) ?size ()
  in
  t.local_seq <- t.local_seq + 1;
  originate t pkt

(* Crash-and-reboot: CBT is hard state, so losing [fib] severs the
   tree at this node on both sides.  Upstream: we rejoin immediately for
   groups with directly-connected members.  Downstream: our former
   children keep believing we are their parent until their echoes go
   unanswered for [parent_timeout], then flush and rejoin — the slow-heal
   behaviour that distinguishes explicit-ack hard state from PIM's
   periodic soft-state refresh (paper footnote 4). *)
let restart t =
  if tracing t then ev t Event.Restart;
  Fwd.clear t.fib;
  List.iter (fun g -> join_local t g) t.local_joined

(* {1 Timers} *)

(* The tick walks [fib] in place, in canonical group order, so per-tick
   protocol actions (echo probes, join retransmits, quits) fire in an
   order independent of hash-bucket layout and the tick allocates only
   the messages it sends. *)

let send_echo t (e : Fwd.entry) =
  let r = tree e in
  if r.confirmed && not (is_core t e) then begin
    match e.Fwd.iif with
    | Some iface ->
      Counters.(incr t.counters ~node:t.node Echoes_sent);
      Net.send t.net t.node ~iface (ctrl t (Echo_request (body t e ~target:(Addr.router r.up))))
    | None -> ()
  end
  else if r.join_outstanding && not (is_core t e) then
    (* CBT is explicit-ack hard state (paper footnote 4): a lost
       JOIN-REQUEST or JOIN-ACK must be retransmitted, there is no
       periodic refresh to fall back on. *)
    send_join t e

let quit t (e : Fwd.entry) =
  let g = e.Fwd.group in
  (match e.Fwd.iif with
  | Some iface ->
    Counters.(incr t.counters ~node:t.node Quits_sent);
    if tracing t then ev t (Event.Quit { group = Group.to_string g });
    Net.send t.net t.node ~iface (ctrl t (Quit (body t e ~target:(Addr.router (tree e).up))))
  | None -> ());
  Fwd.remove t.fib g None

(* Age out [e]'s children, then flush it on a silent parent or quit a
   branch nothing hangs off any more (no child, no local member).  Either
   removes [e]. *)
let age t (e : Fwd.entry) =
  let n = now t in
  ignore (Fwd.prune_expired_oifs e ~now:n);
  let r = tree e in
  if r.confirmed && not (is_core t e) then
    if r.parent_deadline < n then flush t e
    else if e.Fwd.oifs = [] && r.pending = [] then quit t e

(* Sends and join retransmits add and remove no entry; flushes and quits
   then leave in descending group order, each removing only the entry it
   is given, and whether an entry goes depends on its state alone. *)
let tick t =
  Fwd.iter_stars t.fib send_echo t;
  Fwd.iter_stars_rev t.fib age t

let handle_packet t ~iface pkt =
  match pkt.Packet.payload with
  | Join_request b -> handle_join_request t ~iface b
  | Join_ack b -> handle_join_ack t ~iface b
  | Echo_request b -> handle_echo_request t ~iface b
  | Echo_reply b -> handle_echo_reply t ~iface b
  | Quit b -> handle_quit t ~iface b
  | Encap inner -> (
    match pkt.Packet.dst with
    | Packet.Unicast dst when Addr.equal dst t.addr -> handle_encap t inner
    | _ -> send_unicast t pkt)
  | Mdata.Data _ -> (
    match Addr.host_router_index_exn pkt.Packet.src with
    | r when r = t.node -> originate t pkt
    | _ | (exception Not_found) -> handle_data t ~iface pkt)
  | _ -> (
    match pkt.Packet.dst with
    | Packet.Unicast dst when not (Addr.equal dst t.addr) -> send_unicast t pkt
    | _ -> ())

let create ?(config = default_config) ?trace ~net ~rib ~core_of node =
  let t =
    {
      node;
      addr = Addr.router node;
      net;
      eng = Net.engine net;
      rib;
      core_of;
      cfg = config;
      trace;
      fib = Fwd.create ();
      counters = Net.counters net;
      local_cbs = Pim_util.Vec.create ();
      local_seq = 0;
      local_joined = [];
    }
  in
  Net.set_handler net node (fun ~iface pkt -> handle_packet t ~iface pkt);
  let frac = float_of_int (node mod 16) /. 16. in
  ignore
    (Engine.every t.eng
       ~start:(config.echo_interval *. (0.3 +. (0.5 *. frac)))
       ~interval:config.echo_interval
       (fun () -> tick t));
  t

module Deployment = struct
  type router = t

  type nonrec t = { routers : router array }

  let create_static ?config ?trace net ~core_of =
    let static = Pim_routing.Static.create net in
    let n = Topology.n_nodes (Net.topo net) in
    let routers =
      Array.init n (fun u ->
          create ?config ?trace ~net ~rib:(Pim_routing.Static.rib static u) ~core_of u)
    in
    { routers }

  let router t u = t.routers.(u)

  let total_entries t = Array.fold_left (fun acc r -> acc + Fwd.count r.fib) 0 t.routers
end
