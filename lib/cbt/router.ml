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

type entry = {
  group : Group.t;
  core : Addr.t;
  mutable parent : (Topology.iface * Topology.node) option;
  mutable confirmed : bool;
  children : (Topology.iface, float) Hashtbl.t;
  mutable pending : Topology.iface list;
  mutable join_outstanding : bool;
  mutable local : bool;
  mutable parent_deadline : float;
}

type t = {
  node : Topology.node;
  addr : Addr.t;
  net : Net.t;
  eng : Engine.t;
  rib : Rib.t;
  core_of : Group.t -> Addr.t option;
  cfg : config;
  trace : Trace.t option;
  entries : (Group.t, entry) Hashtbl.t;
  counters : Counters.t;
  local_cbs : (Packet.t -> unit) Pim_util.Vec.t;
  mutable local_seq : int;
  (* Groups with directly-connected members, remembered outside [entries]
     so a restart (which wipes them) can rejoin each tree. *)
  mutable local_joined : Group.t list;
}

let node t = t.node

let now t = Engine.now t.eng

let tracing t = Trace.active t.trace

let tr t tag fmt =
  match t.trace with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some trc -> Format.kasprintf (fun s -> Trace.log trc ~node:t.node ~tag s) fmt

let ev t event =
  match t.trace with None -> () | Some trc -> Trace.emit trc ~node:t.node event

let is_core t (e : entry) = Addr.equal e.core t.addr

let all_routers = Group.of_addr_exn Addr.all_pim_routers

let ctrl t payload = Packet.multicast ~src:t.addr ~group:all_routers ~ttl:1 ~size:20 payload

let send_join t (e : entry) =
  match e.parent with
  | None -> ()
  | Some (iface, up) ->
    e.join_outstanding <- true;
    Counters.(incr t.counters ~node:t.node Joins_sent);
    if tracing t then
      ev t (Event.Join { route = { Event.group = Group.to_string e.group; source = None }; iface });
    let b = { group = e.group; core = e.core; origin = t.node; target = Addr.router up } in
    Net.send t.net t.node ~iface (ctrl t (Join_request b))

let ensure t g ~core =
  match Hashtbl.find_opt t.entries g with
  | Some e -> e
  | None ->
    let parent = if Addr.equal core t.addr then None else t.rib.Rib.next_hop core in
    let e =
      {
        group = g;
        core;
        parent;
        confirmed = Addr.equal core t.addr;
        children = Hashtbl.create 4;
        pending = [];
        join_outstanding = false;
        local = false;
        parent_deadline = now t +. t.cfg.parent_timeout;
      }
    in
    Hashtbl.replace t.entries g e;
    e

(* Is [iface] on a group's tree: a child whose timer has not run out, or
   the parent interface of a confirmed router other than the core?  Data
   forwarding walks the router's interfaces through it instead of
   building the list. *)
let on_tree_iface ~now ~children ~parent ~confirmed ~core iface =
  (match Hashtbl.find children iface with exp -> exp > now | exception Not_found -> false)
  ||
  match parent with
  | Some (i, _) -> i = iface && confirmed && not core
  | None -> false

let tree_ifaces_of t (e : entry) =
  let now = now t and core = is_core t e in
  List.init
    (Topology.degree (Net.topo t.net) t.node)
    Fun.id
  |> List.filter (fun i ->
         on_tree_iface ~now ~children:e.children ~parent:e.parent ~confirmed:e.confirmed ~core i)

let on_tree t g =
  match Hashtbl.find_opt t.entries g with
  | Some e -> e.confirmed || is_core t e
  | None -> false

let tree_ifaces t g =
  match Hashtbl.find_opt t.entries g with Some e -> tree_ifaces_of t e | None -> []

let entry_count t = Hashtbl.length t.entries

let add_child t (e : entry) iface =
  Hashtbl.replace e.children iface (now t +. t.cfg.child_timeout)

let send_ack t (e : entry) iface =
  Counters.(incr t.counters ~node:t.node Acks_sent);
  let b = { group = e.group; core = e.core; origin = t.node; target = Addr.all_pim_routers } in
  Net.send t.net t.node ~iface (ctrl t (Join_ack b))

let confirm t (e : entry) =
  if not e.confirmed then begin
    e.confirmed <- true;
    e.join_outstanding <- false;
    e.parent_deadline <- now t +. t.cfg.parent_timeout;
    if tracing t then tr t "on-tree" "%s confirmed" (Group.to_string e.group);
    List.iter
      (fun i ->
        add_child t e i;
        send_ack t e i)
      e.pending;
    e.pending <- []
  end

let handle_join_request t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    let e = ensure t b.group ~core:b.core in
    if e.confirmed || is_core t e then begin
      add_child t e iface;
      send_ack t e iface
    end
    else begin
      if not (List.mem iface e.pending) then e.pending <- iface :: e.pending;
      if not e.join_outstanding then send_join t e
    end
  end

let handle_join_ack t ~iface (b : body) =
  match Hashtbl.find_opt t.entries b.group with
  | Some e when e.join_outstanding -> (
    match e.parent with
    | Some (pi, _) when pi = iface -> confirm t e
    | _ -> ())
  | _ -> ()

let flush t (e : entry) =
  Counters.(incr t.counters ~node:t.node Flushes);
  if tracing t then tr t "flush" "%s: parent silent, flushing" (Group.to_string e.group);
  Hashtbl.remove t.entries e.group;
  if e.local then begin
    let g = e.group and core = e.core in
    ignore
      (Engine.schedule t.eng ~after:t.cfg.rejoin_delay (fun () ->
           (* Re-validate on fire: if the group re-attached meanwhile
              (confirmed or a join already in flight), just restore the
              local-membership bit instead of re-joining. *)
           match Hashtbl.find_opt t.entries g with
           | Some e' when e'.confirmed || e'.join_outstanding -> e'.local <- true
           | _ ->
             let e' = ensure t g ~core in
             e'.local <- true;
             if (not e'.confirmed) && not e'.join_outstanding then send_join t e'))
  end

let handle_echo_request t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    match Hashtbl.find_opt t.entries b.group with
    | Some e when e.confirmed || is_core t e ->
      (* Refresh (or re-learn) the child on this interface and answer. *)
      add_child t e iface;
      let reply = { b with origin = t.node; target = Addr.all_pim_routers } in
      Net.send t.net t.node ~iface (ctrl t (Echo_reply reply))
    | _ -> ()
  end

let handle_echo_reply t ~iface (b : body) =
  match Hashtbl.find_opt t.entries b.group with
  | Some e -> (
    match e.parent with
    | Some (pi, up) when pi = iface && b.origin = up ->
      e.parent_deadline <- now t +. t.cfg.parent_timeout
    | _ -> ())
  | None -> ()

let handle_quit t ~iface (b : body) =
  if Addr.equal b.target t.addr then begin
    match Hashtbl.find_opt t.entries b.group with
    | Some e -> Hashtbl.remove e.children iface
    | None -> ()
  end

(* {1 Data} *)

let local_deliver t pkt =
  Counters.(incr t.counters ~node:t.node Data_delivered_local);
  for i = 0 to Pim_util.Vec.length t.local_cbs - 1 do
    let cb = Pim_util.Vec.get t.local_cbs i in
    cb pkt
  done

(* Copy the packet onto every tree interface but [exclude], in ascending
   interface order, testing each in place.  [exclude] is the arrival
   interface, or [Topology.no_iface] for data injected at this router. *)
let forward_on_tree t (e : entry) ~exclude pkt =
  match Packet.decr_ttl pkt with
  | None -> ()
  | Some pkt' ->
    let now = now t and core = is_core t e in
    for i = 0 to Topology.degree (Net.topo t.net) t.node - 1 do
      if i <> exclude
         && on_tree_iface ~now ~children:e.children ~parent:e.parent ~confirmed:e.confirmed ~core i
      then begin
        Counters.(incr t.counters ~node:t.node Data_forwarded);
        Net.send t.net t.node ~iface:i pkt'
      end
    done;
    if e.local && exclude <> Topology.no_iface then local_deliver t pkt

let send_unicast t pkt =
  match pkt.Packet.dst with
  | Packet.Multicast _ -> ()
  | Packet.Unicast dst -> (
    match t.rib.Rib.next_hop dst with
    | None -> ()
    | Some (iface, next) -> Net.send t.net t.node ~iface ~to_node:next pkt)

let originate t pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g -> (
    match t.core_of g with
    | None -> ()
    | Some core -> (
      match Hashtbl.find_opt t.entries g with
      | Some e when e.confirmed || is_core t e ->
        forward_on_tree t e ~exclude:Topology.no_iface pkt;
        if e.local then local_deliver t pkt
      | _ ->
        (* Off-tree sender: tunnel the packet to the core (CBT non-member
           sending). *)
        Counters.(incr t.counters ~node:t.node Data_encapsulated);
        if Addr.equal core t.addr then ()
        else send_unicast t (Packet.unicast ~src:t.addr ~dst:core ~size:(pkt.Packet.size + 28) (Encap pkt))))

let handle_data t ~iface pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g -> (
    match Hashtbl.find t.entries g with
    | e
      when on_tree_iface ~now:(now t) ~children:e.children ~parent:e.parent
             ~confirmed:e.confirmed ~core:(is_core t e) iface ->
      forward_on_tree t e ~exclude:iface pkt
    | _ | (exception Not_found) ->
      Counters.(incr t.counters ~node:t.node Data_dropped_off_tree))

let handle_encap t inner =
  match Mdata.group inner with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt t.entries g with
    | Some e when is_core t e || e.confirmed ->
      forward_on_tree t e ~exclude:Topology.no_iface inner;
      if e.local then local_deliver t inner
    | _ -> ())

(* {1 Membership} *)

let join_local t g =
  match t.core_of g with
  | None -> if tracing t then tr t "ignore" "%s has no core configured" (Group.to_string g)
  | Some core ->
    if not (List.exists (Group.equal g) t.local_joined) then
      t.local_joined <- g :: t.local_joined;
    let e = ensure t g ~core in
    e.local <- true;
    if (not e.confirmed) && (not (is_core t e)) && not e.join_outstanding then send_join t e

let leave_local t g =
  t.local_joined <- List.filter (fun g' -> not (Group.equal g g')) t.local_joined;
  match Hashtbl.find_opt t.entries g with Some e -> e.local <- false | None -> ()

let on_local_data t f = Pim_util.Vec.push t.local_cbs f

let local_source_addr t = Addr.host ~router:t.node 1

let send_local_data t ~group ?size () =
  let pkt =
    Mdata.make ~src:(local_source_addr t) ~group ~seq:t.local_seq ~sent_at:(now t) ?size ()
  in
  t.local_seq <- t.local_seq + 1;
  originate t pkt

(* Crash-and-reboot: CBT is hard state, so losing [entries] severs the
   tree at this node on both sides.  Upstream: we rejoin immediately for
   groups with directly-connected members.  Downstream: our former
   children keep believing we are their parent until their echoes go
   unanswered for [parent_timeout], then flush and rejoin — the slow-heal
   behaviour that distinguishes explicit-ack hard state from PIM's
   periodic soft-state refresh (paper footnote 4). *)
let restart t =
  if tracing t then tr t "restart" "rebooted: tree state wiped";
  Hashtbl.reset t.entries;
  List.iter (fun g -> join_local t g) t.local_joined

(* {1 Timers} *)

(* Entries in canonical group order, so per-tick protocol actions (echo
   probes, join retransmits, quits) fire in an order independent of
   hash-bucket layout. *)
let sorted_entries t =
  Hashtbl.fold (fun g e acc -> (g, e) :: acc) t.entries []
  |> List.sort (fun (g, _) (g', _) -> Group.compare g g')

let tick t =
  (* Sends and join retransmits add and remove no entry, so one snapshot
     serves both passes. *)
  let entries = sorted_entries t in
  List.iter
    (fun (_, (e : entry)) ->
      if e.confirmed && not (is_core t e) then begin
        match e.parent with
        | Some (iface, up) ->
          Counters.(incr t.counters ~node:t.node Echoes_sent);
          let b = { group = e.group; core = e.core; origin = t.node; target = Addr.router up } in
          Net.send t.net t.node ~iface (ctrl t (Echo_request b))
        | None -> ()
      end
      else if e.join_outstanding && not (is_core t e) then
        (* CBT is explicit-ack hard state (paper footnote 4): a lost
           JOIN-REQUEST or JOIN-ACK must be retransmitted, there is no
           periodic refresh to fall back on. *)
        send_join t e)
    entries;
  (* Age out children and flush on silent parents. *)
  let n = now t in
  let doomed = ref [] in
  List.iter
    (fun (g, (e : entry)) ->
      if Hashtbl.length e.children > 0 then begin
        let dead =
          Hashtbl.fold (fun i exp acc -> if exp <= n then i :: acc else acc) e.children []
          |> List.sort Int.compare
        in
        List.iter (Hashtbl.remove e.children) dead
      end;
      if e.confirmed && (not (is_core t e)) && e.parent_deadline < n then doomed := `Flush e :: !doomed
      else if
        e.confirmed && (not (is_core t e)) && (not e.local)
        && Hashtbl.length e.children = 0 && e.pending = []
      then doomed := `Quit (g, e) :: !doomed)
    entries;
  List.iter
    (function
      | `Flush e -> flush t e
      | `Quit (g, (e : entry)) -> (
        match e.parent with
        | Some (iface, up) ->
          Counters.(incr t.counters ~node:t.node Quits_sent);
          if tracing t then tr t "quit" "%s: leaving tree" (Group.to_string g);
          let b = { group = g; core = e.core; origin = t.node; target = Addr.router up } in
          Net.send t.net t.node ~iface (ctrl t (Quit b));
          Hashtbl.remove t.entries g
        | None -> Hashtbl.remove t.entries g))
    !doomed

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
    match Addr.host_router_index pkt.Packet.src with
    | Some r when r = t.node -> originate t pkt
    | _ -> handle_data t ~iface pkt)
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
      entries = Hashtbl.create 16;
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

  let total_entries t = Array.fold_left (fun acc r -> acc + entry_count r) 0 t.routers
end
