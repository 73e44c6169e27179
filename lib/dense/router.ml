module Topology = Pim_graph.Topology
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Engine = Pim_sim.Engine
module Trace = Pim_sim.Trace
module Event = Pim_sim.Event
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Fwd = Pim_mcast.Fwd
module Mdata = Pim_mcast.Mdata
module Rib = Pim_routing.Rib

let local_iface = -1

type mode =
  | Dvmrp
  | Pim_dm

type config = {
  mode : mode;
  prune_timeout : float;
  entry_linger : float;
  graft : bool;
  prune_override_delay : float;
  prune_override_window : float;
  prune_rate_limit : float;
  sweep_interval : float;
  advertise_members : bool;
  advert_interval : float;
}

let default_config =
  {
    mode = Dvmrp;
    prune_timeout = 180.;
    entry_linger = 210.;
    graft = false;
    prune_override_delay = 1.;
    prune_override_window = 3.;
    prune_rate_limit = 5.;
    sweep_interval = 20.;
    advertise_members = false;
    advert_interval = 30.;
  }

let fast_config =
  {
    default_config with
    prune_timeout = 18.;
    entry_linger = 21.;
    prune_override_delay = 0.1;
    prune_override_window = 0.3;
    prune_rate_limit = 0.5;
    sweep_interval = 2.;
    advert_interval = 3.;
  }

(* Per-entry prune and join state, kept on the entry through [Fwd.ext]. *)
type aux = {
  pruned : (Topology.iface, float) Hashtbl.t;
  last_join : (Topology.iface, float) Hashtbl.t;
  mutable last_prune_up : float;
  mutable pruned_upstream : bool;
  mutable override_pending : bool;
}

type Fwd.ext += Aux of aux

module GroupSet = Set.Make (Group)

(* Intra-region membership advertisement (flooded with per-origin sequence
   numbers).  This is the "getting the group member existence information
   to the border routers" mechanism section 4 of the PIM paper says
   dense/sparse interoperation needs: every router in the dense region —
   border routers included — learns whether the region has members. *)
type advert = {
  a_origin : Topology.node;
  a_seq : int;
  a_groups : Group.t list;
}

type Packet.payload += Member_advert of advert

let () =
  Packet.register_printer (function
    | Member_advert a ->
      Some
        (Printf.sprintf "dm-members origin=%d seq=%d (%d groups)" a.a_origin a.a_seq
           (List.length a.a_groups))
    | _ -> None)

type t = {
  node : Topology.node;
  addr : Addr.t;
  net : Net.t;
  eng : Engine.t;
  rib : Rib.t;
  neighbor_rib : Topology.node -> Rib.t;
  cfg : config;
  igmp : Pim_igmp.Router.t;
  fib : Fwd.t;
  trace : Trace.t option;
  counters : Counters.t;
  mutable local_groups : GroupSet.t;
  local_cbs : (Packet.t -> unit) Pim_util.Vec.t;
  mutable local_seq : int;
  region_db : (Topology.node, int * GroupSet.t * float) Hashtbl.t;  (* seq, groups, expiry *)
  mutable advert_seq : int;
  region_cbs : (Group.t -> bool -> unit) Pim_util.Vec.t;
  mutable region_reported : GroupSet.t;  (* presence last told to subscribers *)
}

let node t = t.node

let fib t = t.fib

let igmp t = t.igmp

let now t = Engine.now t.eng

let tracing t = Trace.active t.trace

let tr t tag fmt =
  match t.trace with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some trc -> Format.kasprintf (fun s -> Trace.log trc ~node:t.node ~tag s) fmt

let ev t event =
  match t.trace with None -> () | Some trc -> Trace.emit trc ~node:t.node event

let route_of_sg g s = { Event.group = Group.to_string g; source = Some (Addr.to_string s) }

(* [e]'s aux, attached on first use. *)
let aux (e : Fwd.entry) =
  match e.Fwd.ext with
  | Aux a -> a
  | _ ->
    let a =
      {
        pruned = Hashtbl.create 4;
        last_join = Hashtbl.create 4;
        last_prune_up = neg_infinity;
        pruned_upstream = false;
        override_pending = false;
      }
    in
    e.Fwd.ext <- Aux a;
    a

let has_local_members t g =
  GroupSet.mem g t.local_groups || Pim_igmp.Router.has_member t.igmp g

(* DVMRP child check: does some router on this link route toward the
   source through us?  (What poison reverse teaches real DVMRP.)  Ends
   are asked in link order, from [k] on. *)
let rec link_has_child t ~ends ~ifaces src k =
  k < Array.length ends
  && (let v = ends.(k) in
      (v <> t.node && Net.node_up t.net v
      &&
      match (t.neighbor_rib v).Rib.next_hop src with
      | Some (vi, next) -> next = t.node && vi = ifaces.(k)
      | None -> false)
      || link_has_child t ~ends ~ifaces src (k + 1))

(* Does interface [i] (on link [lid]) get a copy under truncated
   reverse-path broadcast: not the incoming one, not [exclude], not a
   pruned branch, up, and either a leaf subnetwork with members or — in
   DVMRP mode only if it has child routers — a transit link? *)
let broadcasts_on t (e : Fwd.entry) a ~now ~exclude src g i lid =
  (not (Fwd.iif_is e i))
  && i <> exclude
  && (not (Fwd.masked a.pruned i ~now))
  && Net.link_up t.net lid
  &&
  let topo = Net.topo t.net in
  let ends = (Topology.link topo lid).Topology.ends in
  if Array.length ends = 1 then
    (* Leaf subnetwork: truncated broadcast (section 1.1). *)
    Pim_igmp.Router.member_on t.igmp ~iface:i g
  else
    match t.cfg.mode with
    | Pim_dm -> true
    | Dvmrp -> link_has_child t ~ends ~ifaces:(Topology.end_ifaces topo lid) src 0

(* Truncated reverse-path broadcast, walked over the router's interface
   array: the local pseudo interface first when the router itself has
   joined, then every qualifying interface in ascending order, each handed
   to [f t x y].  Returns how many there were. *)
let broadcast t (e : Fwd.entry) ~exclude src g f x y =
  let a = aux e in
  let now = now t in
  let count = ref 0 in
  if GroupSet.mem g t.local_groups then begin
    f t x y local_iface;
    incr count
  end;
  let ifaces = Topology.ifaces (Net.topo t.net) t.node in
  for k = 0 to Array.length ifaces - 1 do
    let i, lid = ifaces.(k) in
    if broadcasts_on t e a ~now ~exclude src g i lid then begin
      f t x y i;
      incr count
    end
  done;
  !count

let local_deliver t pkt =
  Counters.(incr t.counters ~node:t.node Data_delivered_local);
  for i = 0 to Pim_util.Vec.length t.local_cbs - 1 do
    let cb = Pim_util.Vec.get t.local_cbs i in
    cb pkt
  done

(* Broadcast sink: [pkt'] is the copy with its TTL decremented; local
   members get [pkt] itself. *)
let send_data t pkt pkt' i =
  if i = local_iface then local_deliver t pkt
  else begin
    Counters.(incr t.counters ~node:t.node Data_forwarded);
    Net.send t.net t.node ~iface:i pkt'
  end

(* Forward a data packet matching [e]; returns the size of the broadcast
   set, which is counted even when the TTL runs out. *)
let forward_data t (e : Fwd.entry) ~exclude src g pkt =
  match Packet.decr_ttl pkt with
  | None -> broadcast t e ~exclude src g Fwd.skip () ()
  | Some pkt' -> broadcast t e ~exclude src g send_data pkt pkt'

let broadcast_ifaces t (e : Fwd.entry) ~exclude =
  match e.Fwd.source with
  | None -> []
  | Some src ->
    let acc = ref [] in
    let exclude = Option.value exclude ~default:Topology.no_iface in
    ignore (broadcast t e ~exclude src e.Fwd.group (fun _ () () i -> acc := i :: !acc) () ());
    List.rev !acc

let send_prune_upstream t (e : Fwd.entry) src g =
  if now t -. (aux e).last_prune_up >= t.cfg.prune_rate_limit then begin
    match t.rib.Rib.next_hop src with
    | None -> ()
    | Some (iface, up) ->
      let a = aux e in
      a.last_prune_up <- now t;
      a.pruned_upstream <- true;
      Counters.(incr t.counters ~node:t.node Prunes_sent);
      if tracing t then ev t (Event.Prune { route = route_of_sg g src; iface });
      let pkt =
        Message.prune_packet ~src:t.addr ~target:(Addr.router up) ~origin:t.node ~source:src
          ~group:g ~holdtime:t.cfg.prune_timeout
      in
      Net.send t.net t.node ~iface pkt
  end

let send_join_upstream t src g =
  match t.rib.Rib.next_hop src with
  | None -> ()
  | Some (iface, up) ->
    Counters.(incr t.counters ~node:t.node Joins_sent);
    if tracing t then ev t (Event.Graft { route = route_of_sg g src; iface });
    let pkt =
      Message.join_packet ~src:t.addr ~target:(Addr.router up) ~origin:t.node ~source:src
        ~group:g
    in
    Net.send t.net t.node ~iface pkt

let ensure_entry t g src =
  match Fwd.find_sg t.fib g src with
  | Some e ->
    e.Fwd.expires <- Float.max e.Fwd.expires (now t +. t.cfg.entry_linger);
    e
  | None ->
    let iif =
      match Addr.host_router_index src with
      | Some r when r = t.node -> None  (* local source *)
      | _ -> Rib.rpf_iface t.rib src
    in
    let e = Fwd.make_sg ~group:g ~source:src ~iif ~expires:(now t +. t.cfg.entry_linger) () in
    Fwd.insert t.fib e;
    if tracing t then ev t (Event.Entry_install { route = route_of_sg g src });
    e

let handle_data t ~iface pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g ->
    let src = pkt.Packet.src in
    let e = ensure_entry t g src in
    if not (Fwd.iif_is e iface) then begin
      Counters.(incr t.counters ~node:t.node Data_dropped_iif);
      (* PIM dense mode prunes useless parallel paths on point-to-point
         links when packets arrive off the reverse path. *)
      if t.cfg.mode = Pim_dm then begin
        let link = Topology.link_of_iface (Net.topo t.net) t.node iface in
        match Topology.others_on_link (Net.topo t.net) link.Topology.id t.node with
        | [ v ] when not link.Topology.is_lan ->
          let pkt' =
            Message.prune_packet ~src:t.addr ~target:(Addr.router v) ~origin:t.node
              ~source:src ~group:g ~holdtime:t.cfg.prune_timeout
          in
          Counters.(incr t.counters ~node:t.node Prunes_sent);
          Net.send t.net t.node ~iface pkt'
        | _ -> ()
      end
    end
    else begin
      let sent = forward_data t e ~exclude:iface src g pkt in
      if sent = 0 && not (has_local_members t g) then send_prune_upstream t e src g
    end

let originate_data t ~incoming pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g ->
    let src = pkt.Packet.src in
    let e = ensure_entry t g src in
    let exclude = Option.value incoming ~default:Topology.no_iface in
    ignore (forward_data t e ~exclude src g pkt)

(* {1 Prune/Join processing with LAN override (section 3.7)} *)

let lan_with_peers t iface =
  let link = Topology.link_of_iface (Net.topo t.net) t.node iface in
  link.Topology.is_lan
  && List.length (Topology.others_on_link (Net.topo t.net) link.Topology.id t.node) >= 2

let apply_prune t (e : Fwd.entry) ~iface ~holdtime =
  Hashtbl.replace (aux e).pruned iface (now t +. holdtime)

let handle_prune t ~iface (b : Message.body) =
  match Fwd.find_sg t.fib b.Message.group b.Message.source with
  | None -> ()
  | Some e ->
    if lan_with_peers t iface then begin
      (* Delay the cut so another LAN router can override with a join. *)
      let asked_at = now t in
      ignore
        (Engine.schedule t.eng ~after:t.cfg.prune_override_window (fun () ->
             (* Re-validate on fire against the entry then holding the
                route: no entry (wiped by a reboot, or expired) or a join
                heard during the window cancels the cut. *)
             match Fwd.find_sg t.fib b.Message.group b.Message.source with
             | None -> ()
             | Some e -> (
               match Hashtbl.find_opt (aux e).last_join iface with
               | Some tj when tj >= asked_at -> ()
               | _ -> apply_prune t e ~iface ~holdtime:b.Message.holdtime)))
    end
    else apply_prune t e ~iface ~holdtime:b.Message.holdtime

let handle_join t ~iface (b : Message.body) =
  match Fwd.find_sg t.fib b.Message.group b.Message.source with
  | None -> ()
  | Some e ->
    let a = aux e in
    Hashtbl.remove a.pruned iface;
    Hashtbl.replace a.last_join iface (now t);
    (* Hop-by-hop graft propagation: if we had pruned ourselves off the
       broadcast tree, rejoin it so the revived branch gets data. *)
    if a.pruned_upstream then begin
      a.pruned_upstream <- false;
      send_join_upstream t b.Message.source b.Message.group
    end

let overhear_prune t ~iface (b : Message.body) =
  if lan_with_peers t iface then begin
    match Fwd.find_sg t.fib b.Message.group b.Message.source with
    | Some e when Fwd.iif_is e iface ->
      let interested =
        has_local_members t b.Message.group
        || broadcast t e ~exclude:Topology.no_iface b.Message.source b.Message.group Fwd.skip () ()
           > 0
      in
      let a = aux e in
      if interested && not a.override_pending then begin
        a.override_pending <- true;
        let jitter = 0.5 +. (0.5 *. float_of_int (t.node mod 8) /. 8.) in
        ignore
          (Engine.schedule t.eng ~after:(t.cfg.prune_override_delay *. jitter) (fun () ->
               if a.override_pending then begin
                 a.override_pending <- false;
                 Counters.(incr t.counters ~node:t.node Joins_sent);
                 if tracing t then
                   tr t "override" "overriding prune for (%s,%s)"
                     (Addr.to_string b.Message.source)
                     (Group.to_string b.Message.group);
                 let pkt =
                   Message.join_packet ~src:t.addr ~target:b.Message.target ~origin:t.node
                     ~source:b.Message.source ~group:b.Message.group
                 in
                 Net.send t.net t.node ~iface pkt
               end))
      end
    | _ -> ()
  end

let overhear_join t ~iface (b : Message.body) =
  ignore iface;
  match Fwd.find_sg t.fib b.Message.group b.Message.source with
  | Some e -> (aux e).override_pending <- false
  | None -> ()

(* {1 Region membership advertisements (section 4 interoperation)} *)

let region_presence_snapshot t =
  let n = now t in
  let remote =
    Hashtbl.fold
      (fun _ (_, gs, expiry) acc -> if expiry > n then GroupSet.union gs acc else acc)
      t.region_db GroupSet.empty
  in
  let local = GroupSet.union t.local_groups (GroupSet.of_list (Pim_igmp.Router.groups t.igmp)) in
  GroupSet.union remote local

let region_has_member t g = GroupSet.mem g (region_presence_snapshot t)

let on_region_change t f = Pim_util.Vec.push t.region_cbs f

(* Report to subscribers every group whose region-wide presence differs
   from what was last reported.  Presence is time-dependent (adverts
   expire), so this also runs from the periodic sweep. *)
let sync_presence t =
  if Pim_util.Vec.length t.region_cbs > 0 then begin
    let current = region_presence_snapshot t in
    GroupSet.iter
      (fun g ->
        if not (GroupSet.mem g t.region_reported) then
          Pim_util.Vec.iter (fun cb -> cb g true) t.region_cbs)
      current;
    GroupSet.iter
      (fun g ->
        if not (GroupSet.mem g current) then Pim_util.Vec.iter (fun cb -> cb g false) t.region_cbs)
      t.region_reported;
    t.region_reported <- current
  end

let flood_advert t ~except adv =
  Array.iter
    (fun (iface, lid) ->
      if Some iface <> except && Net.link_up t.net lid then begin
        let pkt =
          Packet.unicast ~src:t.addr ~dst:Addr.all_pim_routers
            ~size:(12 + (4 * List.length adv.a_groups))
            (Member_advert adv)
        in
        Net.send t.net t.node ~iface pkt
      end)
    (Topology.ifaces (Net.topo t.net) t.node)

let originate_advert t =
  if t.cfg.advertise_members then begin
    t.advert_seq <- t.advert_seq + 1;
    let groups =
      GroupSet.elements
        (GroupSet.union t.local_groups (GroupSet.of_list (Pim_igmp.Router.groups t.igmp)))
    in
    flood_advert t ~except:None { a_origin = t.node; a_seq = t.advert_seq; a_groups = groups }
  end

let install_advert t ~iface adv =
  if t.cfg.advertise_members && adv.a_origin <> t.node then begin
    let fresher =
      match Hashtbl.find_opt t.region_db adv.a_origin with
      | None -> true
      | Some (seq, _, _) -> adv.a_seq > seq
    in
    if fresher then begin
      Hashtbl.replace t.region_db adv.a_origin
        (adv.a_seq, GroupSet.of_list adv.a_groups, now t +. (3. *. t.cfg.advert_interval));
      sync_presence t;
      flood_advert t ~except:(Some iface) adv
    end
    else
      (* Refresh of the entry we already hold: extend its lifetime. *)
      match Hashtbl.find_opt t.region_db adv.a_origin with
      | Some (seq, gs, _) when seq = adv.a_seq ->
        Hashtbl.replace t.region_db adv.a_origin
          (seq, gs, now t +. (3. *. t.cfg.advert_interval))
      | _ -> ()
  end

(* {1 Membership} *)

let graft_if_needed t g =
  if t.cfg.graft then
    List.iter
      (fun (e : Fwd.entry) ->
        match e.Fwd.source with
        | Some src when (aux e).pruned_upstream ->
          (aux e).pruned_upstream <- false;
          send_join_upstream t src g
        | _ -> ())
      (Fwd.group_entries t.fib g)

let join_local t g =
  if not (GroupSet.mem g t.local_groups) then begin
    t.local_groups <- GroupSet.add g t.local_groups;
    sync_presence t;
    originate_advert t;
    graft_if_needed t g
  end

let leave_local t g =
  if GroupSet.mem g t.local_groups then begin
    t.local_groups <- GroupSet.remove g t.local_groups;
    sync_presence t;
    originate_advert t
  end

let on_local_data t f = Pim_util.Vec.push t.local_cbs f

let local_source_addr t = Addr.host ~router:t.node 1

let send_local_data t ~group ?size () =
  let pkt =
    Mdata.make ~src:(local_source_addr t) ~group ~seq:t.local_seq ~sent_at:(now t) ?size ()
  in
  t.local_seq <- t.local_seq + 1;
  originate_data t ~incoming:None pkt

let is_dr t lid =
  Topology.others_on_link (Net.topo t.net) lid t.node
  |> List.for_all (fun v -> (not (Net.node_up t.net v)) || v > t.node)

let is_local_origin t ~iface src =
  let link = Topology.link_of_iface (Net.topo t.net) t.node iface in
  link.Topology.is_lan
  && (match Addr.host_router_index src with
     | Some r -> Array.mem r link.Topology.ends
     | None -> false)
  && is_dr t link.Topology.id

let sweep t =
  let n = now t in
  Fwd.iter t.fib (fun (e : Fwd.entry) ->
      (match e.Fwd.ext with
      | Aux a ->
        if Hashtbl.length a.pruned > 0 then begin
          let dead =
            Hashtbl.fold (fun i exp acc -> if exp <= n then i :: acc else acc) a.pruned []
            |> List.sort Int.compare
          in
          List.iter (Hashtbl.remove a.pruned) dead
        end;
        (* A join timestamp can only override prunes whose window is still
           open, i.e. callbacks firing by [tj + prune_override_window];
           strictly past that it is dead soft state. *)
        if Hashtbl.length a.last_join > 0 then begin
          let stale_joins =
            Hashtbl.fold
              (fun i tj acc ->
                if tj +. t.cfg.prune_override_window < n then i :: acc else acc)
              a.last_join []
            |> List.sort Int.compare
          in
          List.iter (Hashtbl.remove a.last_join) stale_joins
        end
      | _ -> ());
      if e.Fwd.expires < n then begin
        if tracing t then
          ev t
            (Event.Entry_expire
               {
                 route =
                   {
                     Event.group = Group.to_string e.Fwd.group;
                     source = Option.map Addr.to_string e.Fwd.source;
                   };
               });
        Fwd.remove t.fib e.Fwd.group e.Fwd.source
      end)

(* Crash-and-reboot: all data-driven state ((S,G) entries, prune state,
   learned region adverts) is lost; configured local memberships survive
   (attached hosts re-report).  Broadcast-and-prune needs no resync
   protocol — the next data packet rebuilds the entry — but the region
   membership advert is re-originated at once so border routers keep an
   accurate view.  [advert_seq] stays monotonic across the reboot,
   otherwise peers would discard the post-reboot adverts as stale. *)
let restart t =
  if tracing t then tr t "restart" "rebooted: forwarding state wiped";
  Fwd.clear t.fib;
  Hashtbl.reset t.region_db;
  sync_presence t;
  originate_advert t

let handle_packet t ~iface pkt =
  if not (Pim_igmp.Router.handle_packet t.igmp ~iface pkt) then begin
    match pkt.Packet.payload with
    | Message.Prune b ->
      if Addr.equal b.Message.target t.addr then handle_prune t ~iface b
      else overhear_prune t ~iface b
    | Message.Join b ->
      if Addr.equal b.Message.target t.addr then handle_join t ~iface b
      else overhear_join t ~iface b
    | Member_advert adv -> install_advert t ~iface adv
    | Mdata.Data _ ->
      if is_local_origin t ~iface pkt.Packet.src then originate_data t ~incoming:(Some iface) pkt
      else handle_data t ~iface pkt
    | _ -> ()
  end

let create ?(config = default_config) ?igmp_config ?trace ~net ~rib ~neighbor_rib node =
  let eng = Net.engine net in
  let igmp = Pim_igmp.Router.create ?config:igmp_config net ~node in
  let t =
    {
      node;
      addr = Addr.router node;
      net;
      eng;
      rib;
      neighbor_rib;
      cfg = config;
      igmp;
      fib = Fwd.create ();
      trace;
      counters = Net.counters net;
      local_groups = GroupSet.empty;
      local_cbs = Pim_util.Vec.create ();
      local_seq = 0;
      region_db = Hashtbl.create 16;
      advert_seq = 0;
      region_cbs = Pim_util.Vec.create ();
      region_reported = GroupSet.empty;
    }
  in
  Net.set_handler net node (fun ~iface pkt -> handle_packet t ~iface pkt);
  Pim_igmp.Router.on_join igmp (fun ~iface:_ g ->
      graft_if_needed t g;
      if config.advertise_members then begin
        sync_presence t;
        originate_advert t
      end);
  Pim_igmp.Router.on_leave igmp (fun ~iface:_ _ ->
      if config.advertise_members then begin
        sync_presence t;
        originate_advert t
      end);
  let frac = float_of_int (node mod 16) /. 16. in
  ignore
    (Engine.every eng
       ~start:(config.sweep_interval *. (0.5 +. (0.5 *. frac)))
       ~interval:config.sweep_interval
       (fun () ->
         sweep t;
         (* Expire silent origins' adverts (crashed routers) and report
            any resulting presence flips. *)
         if config.advertise_members then begin
           let n = now t in
           let dead =
             Hashtbl.fold
               (fun o (_, _, exp) acc -> if exp <= n then o :: acc else acc)
               t.region_db []
             |> List.sort Int.compare
           in
           List.iter (Hashtbl.remove t.region_db) dead;
           sync_presence t
         end));
  if config.advertise_members then
    ignore
      (Engine.every eng
         ~start:(0.2 +. (0.05 *. frac))
         ~interval:config.advert_interval
         (fun () -> originate_advert t));
  t

module Deployment = struct
  type router = t

  type nonrec t = {
    routers : router array;
  }

  let create_static ?config ?igmp_config ?trace net =
    let static = Pim_routing.Static.create net in
    let n = Topology.n_nodes (Net.topo net) in
    let routers =
      Array.init n (fun u ->
          create ?config ?igmp_config ?trace ~net ~rib:(Pim_routing.Static.rib static u)
            ~neighbor_rib:(Pim_routing.Static.rib static) u)
    in
    { routers }

  let router t u = t.routers.(u)

  let total_entries t =
    Array.fold_left (fun acc r -> acc + Fwd.count r.fib) 0 t.routers
end
