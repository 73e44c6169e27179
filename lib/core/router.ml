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

(* Pseudo interface number for directly-connected (synthetic) members:
   forwarding to it delivers to the router's local-data callbacks instead
   of transmitting on a link. *)
let local_iface = -1

type key = Group.t * Addr.t option

(* Per-entry protocol state that is not part of the forwarding entry
   proper, kept on the entry through [Fwd.ext]: the upstream neighbor
   joins are sent to, LAN suppression and override timers, and the
   shared-tree prune mask (our representation of the paper's
   negative-cache oif deletions: an interface in the mask does not
   receive this source's shared-tree traffic). *)
type aux = {
  mutable upstream : (Topology.iface * Topology.node) option;
  mutable suppress_until : float;
  mutable override_pending : bool;
  mutable was_wanted : bool;  (* olist was non-empty at the last sweep *)
  pruned : (Topology.iface, float) Hashtbl.t;
  (* Ring of recently forwarded data-packet identities (the IP
     Identification field, [Mdata.seq] here).  During the RP-tree/SPT
     switchover the same packet can reach this router over both trees, and
     packets sent before the (S,G) join chain completed exist only as
     RP-tree copies still in flight when the SPT bit flips.  The identity
     ring lets [handle_data] forward those stragglers over the shared
     fallback while suppressing true duplicates — the hitless variant of
     the paper's accept-transient-duplicate-or-loss switchover
     (section 3.5). *)
  mutable reg_stop_seen : bool;  (* register suppression onset already traced *)
  mutable seen_ids : int array;  (* ring storage, [||] until first use *)
  mutable seen_len : int;  (* valid prefix length *)
  mutable seen_next : int;  (* next write position *)
}

type t = {
  node : Topology.node;
  addr : Addr.t;
  net : Net.t;
  eng : Engine.t;
  rib : Rib.t;
  rp_set : Rp_set.t;
  rp_lookup : (Group.t -> Addr.t list) option;
      (* dynamic (elected) group-to-RP mapping, consulted before [rp_set] *)
  cfg : Config.t;
  igmp : Pim_igmp.Router.t;
  fib : Fwd.t;
  trace : Trace.t option;
  no_mask : (Topology.iface, float) Hashtbl.t;
      (* always empty: the mask handed to oif walks over "(*,G)" entries,
         which have none *)
  spt_counters : (key, int ref * float ref) Hashtbl.t;
  counters : Counters.t;
  local_cbs : (Packet.t -> unit) Pim_util.Vec.t;
  mutable local_seq : int;
  mutable proxy_ifaces : Topology.iface list;
  (* Directly-connected memberships, remembered outside the FIB so that a
     restart (which wipes the FIB) can re-learn them — the equivalent of
     attached hosts answering the first post-reboot IGMP query. *)
  mutable local_members : (Group.t * Topology.iface) list;
}

let node t = t.node

let addr t = t.addr

let fib t = t.fib

let config t = t.cfg

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

let route_of_entry (e : Fwd.entry) =
  { Event.group = Group.to_string e.Fwd.group; source = Option.map Addr.to_string e.Fwd.source }

type Fwd.ext += Aux of aux

(* [e]'s aux, attached on first use. *)
let aux (e : Fwd.entry) =
  match e.Fwd.ext with
  | Aux a -> a
  | _ ->
    let a =
      {
        upstream = None;
        suppress_until = 0.;
        override_pending = false;
        was_wanted = false;
        pruned = Hashtbl.create 4;
        reg_stop_seen = false;
        seen_ids = [||];
        seen_len = 0;
        seen_next = 0;
      }
    in
    e.Fwd.ext <- Aux a;
    a

(* The address periodic joins chase: the source for an SPT entry, the RP
   for shared-tree entries and negative caches. *)
let entry_target (e : Fwd.entry) =
  match e.source with Some s when not e.rp_bit -> Some s | _ -> e.rp

let compute_upstream t target =
  if Addr.equal target t.addr then None else t.rib.Rib.next_hop target

(* G -> RP list: the dynamic (elected) mapping wins when it knows the
   group, then static configuration, then host-advertised hints
   (section 3.1). *)
let rps_for t g =
  match (match t.rp_lookup with Some f -> f g | None -> []) with
  | _ :: _ as rps -> rps
  | [] -> (
    match Rp_set.rps t.rp_set g with
    | [] -> Pim_igmp.Router.rp_hint t.igmp g
    | rps -> rps)

let is_rp_for t g = List.exists (Addr.equal t.addr) (rps_for t g)

let select_rp t g =
  let candidates = rps_for t g in
  let reachable rp = Addr.equal rp t.addr || t.rib.Rib.distance rp <> None in
  match List.find_opt reachable candidates with
  | Some rp -> Some rp
  | None -> ( match candidates with rp :: _ -> Some rp | [] -> None)

(* [e.rp = Some rp], without building the option. *)
let rp_is (e : Fwd.entry) rp = match e.Fwd.rp with Some a -> Addr.equal a rp | None -> false

let current_rp t g = Option.bind (Fwd.find_star t.fib g) (fun e -> e.Fwd.rp)

(* {1 Outgoing-interface computation} *)

(* The effective oif set of [e] (see {!Olist.effective}), each interface
   handed to [f x y z]; returns its size.  [pruned] is [e]'s prune mask
   (its aux's), unused for a "(*,G)" entry. *)
let walk_effective t (e : Fwd.entry) ~pruned ~exclude f x y z =
  let star = if Fwd.is_star e then None else Fwd.find_star t.fib e.Fwd.group in
  Olist.effective f x y z ~now:(now t) ~pruned ~star ~exclude e

(* The shared-tree set used while an (S,G) entry's SPT bit is clear and
   data still arrives via the RP tree (section 3.5 first exception). *)
let walk_shared t (e : Fwd.entry) ~pruned ~exclude f x y z =
  match Fwd.find_star t.fib e.Fwd.group with
  | None -> 0
  | Some star -> Olist.shared f x y z ~now:(now t) ~pruned ~star ~exclude

let walk_data t e ~pruned ~shared ~exclude f x y z =
  if shared then walk_shared t e ~pruned ~exclude f x y z
  else walk_effective t e ~pruned ~exclude f x y z

(* [e]'s prune mask, without creating an aux for a "(*,G)" entry. *)
let mask_of t (e : Fwd.entry) = if Fwd.is_star e then t.no_mask else (aux e).pruned

(* Whether those sets are non-empty, where [a] is [e]'s aux: the periodic
   sweep and refresh ask this of every entry. *)
let has_effective_oif t e a =
  walk_effective t e ~pruned:a.pruned ~exclude:Topology.no_iface Fwd.skip () () () > 0

let has_shared_oif t e a =
  walk_shared t e ~pruned:a.pruned ~exclude:Topology.no_iface Fwd.skip () () () > 0

(* {1 Sending control messages} *)

let send_jp t ~iface ~target ~group ~joins ~prunes =
  if joins <> [] || prunes <> [] then begin
    let pkt =
      Message.join_prune_packet ~src:t.addr ~target ~origin:t.node ~group ~joins ~prunes
        ~holdtime:t.cfg.oif_holdtime
    in
    Counters.(incr t.counters ~node:t.node Jp_msgs_sent);
    Counters.(add t.counters ~node:t.node Joins_sent (List.length joins));
    Counters.(add t.counters ~node:t.node Prunes_sent (List.length prunes));
    Net.send t.net t.node ~iface pkt
  end

let jp_entry_of (e : Fwd.entry) =
  match (e.source, e.rp) with
  | None, Some rp -> Some (Message.jp_entry ~wc:true ~rp:true rp)
  | Some s, _ when not e.rp_bit -> Some (Message.jp_entry s)
  | Some s, _ -> Some (Message.jp_entry ~rp:true s)
  | None, None -> None

let triggered_join t e =
  let a = aux e in
  match (a.upstream, jp_entry_of e) with
  | Some (iface, up), Some je ->
    if tracing t then ev t (Event.Join { route = route_of_entry e; iface });
    send_jp t ~iface ~target:(Addr.router up) ~group:e.Fwd.group ~joins:[ je ] ~prunes:[]
  | _ -> ()

let triggered_prune t e =
  let a = aux e in
  match (a.upstream, jp_entry_of e) with
  | Some (iface, up), Some je ->
    if tracing t then ev t (Event.Prune { route = route_of_entry e; iface });
    send_jp t ~iface ~target:(Addr.router up) ~group:e.Fwd.group ~joins:[] ~prunes:[ je ]
  | _ -> ()

(* The prune sent toward the RP when the SPT transition completes and the
   shared and shortest-path trees diverge at this router (section 3.3). *)
let divergence_prune t (e : Fwd.entry) =
  match (Fwd.find_star t.fib e.group, e.source) with
  | Some star, Some s when star.Fwd.iif <> e.Fwd.iif -> (
    let a = aux star in
    match a.upstream with
    | Some (iface, up) ->
      if tracing t then ev t (Event.Prune { route = route_of_sg e.Fwd.group s; iface });
      send_jp t ~iface ~target:(Addr.router up) ~group:e.Fwd.group ~joins:[]
        ~prunes:[ Message.jp_entry ~rp:true s ]
    | None -> ())
  | _ -> ()

(* {1 Entry construction} *)

let keepalive t (e : Fwd.entry) = e.Fwd.expires <- Float.max e.Fwd.expires (now t +. t.cfg.entry_linger)

let ensure_star t g ~rp =
  match Fwd.find_star t.fib g with
  | Some e ->
    keepalive t e;
    e
  | None ->
    let upstream = compute_upstream t rp in
    let e = Fwd.make_star ~group:g ~rp ~iif:(Option.map fst upstream) ~expires:(now t +. t.cfg.entry_linger) in
    e.Fwd.rp_deadline <- now t +. t.cfg.rp_timeout;
    Fwd.insert t.fib e;
    (aux e).upstream <- upstream;
    if tracing t then ev t (Event.Entry_install { route = route_of_entry e });
    triggered_join t e;
    e

let ensure_sg t g s ~rp_bit =
  match Fwd.find_sg t.fib g s with
  | Some e ->
    keepalive t e;
    e
  | None ->
    let star = Fwd.find_star t.fib g in
    let rp = match star with Some st -> st.Fwd.rp | None -> select_rp t g in
    let target = if rp_bit then rp else Some s in
    let upstream =
      match target with Some a -> compute_upstream t a | None -> None
    in
    let iif =
      if rp_bit then (match star with Some st -> st.Fwd.iif | None -> Option.map fst upstream)
      else Option.map fst upstream
    in
    let e = Fwd.make_sg ~group:g ~source:s ?rp ~rp_bit ~iif ~expires:(now t +. t.cfg.entry_linger) () in
    Fwd.insert t.fib e;
    (aux e).upstream <- upstream;
    if tracing t then ev t (Event.Entry_install { route = route_of_entry e });
    if not rp_bit then triggered_join t e;
    e

let delete_entry t (e : Fwd.entry) =
  if tracing t then ev t (Event.Entry_expire { route = route_of_entry e });
  Fwd.remove t.fib e.Fwd.group e.Fwd.source

(* {1 Local members and data delivery} *)

let dst_group_string pkt =
  match pkt.Packet.dst with
  | Packet.Multicast g -> Group.to_string g
  | Packet.Unicast a -> Addr.to_string a

let local_deliver t pkt =
  Counters.(incr t.counters ~node:t.node Data_delivered_local);
  if tracing t then
    ev t
      (Event.Pkt_deliver
         {
           src = Addr.to_string pkt.Packet.src;
           group = dst_group_string pkt;
           iface = local_iface;
         });
  for i = 0 to Pim_util.Vec.length t.local_cbs - 1 do
    let cb = Pim_util.Vec.get t.local_cbs i in
    cb pkt
  done

let on_local_data t f = Pim_util.Vec.push t.local_cbs f

let add_local_member t g ~iface =
  (* Remember the membership regardless: with dynamic RP election the
     mapping can arrive after the join, and [sweep] retries then. *)
  if not (List.mem (g, iface) t.local_members) then
    t.local_members <- (g, iface) :: t.local_members;
  match select_rp t g with
  | None ->
    if tracing t then tr t "ignore" "group %s has no RP yet: not sparse-mode" (Group.to_string g)
  | Some rp ->
    let e = ensure_star t g ~rp in
    Fwd.add_oif e iface ~expires:(now t) ~local:true;
    keepalive t e;
    if tracing t then tr t "member" "local member for %s on iface %d" (Group.to_string g) iface

let drop_local_member t g ~iface =
  t.local_members <- List.filter (fun m -> m <> (g, iface)) t.local_members;
  match Fwd.find_star t.fib g with
  | None -> ()
  | Some e -> (
    match Fwd.find_oif e iface with
    | Some o ->
      o.Fwd.local <- false;
      o.Fwd.expires <- Float.min o.Fwd.expires (now t)
    | None -> ())

let join_local t g = add_local_member t g ~iface:local_iface

let leave_local t g = drop_local_member t g ~iface:local_iface

let join_on_iface t g ~iface = add_local_member t g ~iface

let leave_on_iface t g ~iface = drop_local_member t g ~iface

let add_proxy_iface t iface =
  if not (List.mem iface t.proxy_ifaces) then t.proxy_ifaces <- iface :: t.proxy_ifaces

(* A crash-and-reboot: all forwarding and per-entry protocol state is
   lost; only configuration (RP set, Config) and directly-connected
   memberships survive.  The tree re-forms purely through the soft-state
   machinery — triggered joins now, periodic refresh thereafter
   (section 3.4's robustness argument, which the chaos harness tests). *)
let restart t =
  if tracing t then tr t "restart" "rebooted: forwarding state wiped";
  Fwd.clear t.fib;
  Hashtbl.reset t.spt_counters;
  let members = t.local_members in
  t.local_members <- [];
  List.iter (fun (g, iface) -> add_local_member t g ~iface) members

let has_local_members t g =
  match Fwd.find_star t.fib g with
  | None -> false
  | Some e -> List.exists (fun (o : Fwd.oif) -> o.local) e.Fwd.oifs

(* {1 Data-packet forwarding (section 3.5)} *)

(* Identity ring for switchover duplicate suppression: capacity bounds the
   window of remembered packets, which must exceed the number of packets in
   flight across the RP-tree/SPT path-length skew (a few dozen at realistic
   rates; 256 leaves ample margin). *)
let seen_capacity = 256

let rec seen_from ids n id i = i < n && (Array.unsafe_get ids i = id || seen_from ids n id (i + 1))

let seen_id a id = seen_from a.seen_ids a.seen_len id 0

let record_id a id =
  if Array.length a.seen_ids = 0 then a.seen_ids <- Array.make seen_capacity (-1);
  a.seen_ids.(a.seen_next) <- id;
  a.seen_next <- (a.seen_next + 1) mod seen_capacity;
  if a.seen_len < seen_capacity then a.seen_len <- a.seen_len + 1

(* Oif-walk sink: copy a data packet onto interface [i].  [pkt'] is the
   copy with its TTL decremented; local members get [pkt] itself. *)
let send_data t pkt pkt' i =
  if i = local_iface then local_deliver t pkt
  else begin
    Counters.(incr t.counters ~node:t.node Data_forwarded);
    Net.send t.net t.node ~iface:i pkt'
  end

(* Oif-walk sink for control messages down the tree: local members are
   not routers and get none. *)
let send_ctrl t pkt () i = if i <> local_iface then Net.send t.net t.node ~iface:i pkt

(* Forward a data packet over [e]'s effective set, or over its shared-tree
   fallback when [shared]; [pruned] is [e]'s prune mask. *)
let forward_data t e ~pruned ~shared ~exclude pkt =
  match Packet.decr_ttl pkt with
  | None -> ()
  | Some pkt' -> ignore (walk_data t e ~pruned ~shared ~exclude send_data t pkt pkt')

(* Forward a data packet matched by an (S,G) entry, suppressing identities
   this entry already forwarded.  During the switchover the same packet can
   arrive over both the shared tree and the SPT; identity (the IP
   Identification field, modelled by [Mdata.seq]) tells a straggler — an
   RP-tree copy whose SPT twin never existed — from a true duplicate. *)
let forward_sg t e pkt ~shared ~exclude =
  let a = aux e in
  if walk_data t e ~pruned:a.pruned ~shared ~exclude Fwd.skip () () () > 0 then begin
    match Mdata.info pkt with
    | Some i ->
      if seen_id a i.Mdata.seq then begin
        Counters.(incr t.counters ~node:t.node Data_dup_suppressed);
        if tracing t then
          ev t
            (Event.Pkt_drop
               {
                 src = Addr.to_string pkt.Packet.src;
                 group = dst_group_string pkt;
                 iface = local_iface;
                 reason = Printf.sprintf "dup id=%d" i.Mdata.seq;
               })
      end
      else begin
        record_id a i.Mdata.seq;
        forward_data t e ~pruned:a.pruned ~shared ~exclude pkt
      end
    | None -> forward_data t e ~pruned:a.pruned ~shared ~exclude pkt
  end

(* A last-hop router with directly connected members notices shared-tree
   data from a source it has no (S,G) entry for and may initiate the
   switch to the source's shortest-path tree (section 3.3). *)
let maybe_spt_switch t g src =
  let switch () =
    Counters.(incr t.counters ~node:t.node Spt_switches);
    if tracing t then
      ev t (Event.Spt_switch { group = Group.to_string g; source = Addr.to_string src });
    ignore (ensure_sg t g src ~rp_bit:false)
  in
  if has_local_members t g && Fwd.find_sg t.fib g src = None
     && Addr.host_router_index src <> Some t.node
  then
    match t.cfg.spt_policy with
    | Config.Never -> ()
    | Config.Immediate -> switch ()
    | Config.Threshold { packets; window } ->
      let k = (g, Some src) in
      let count, start =
        match Hashtbl.find_opt t.spt_counters k with
        | Some c -> c
        | None ->
          let c = (ref 0, ref (now t)) in
          Hashtbl.replace t.spt_counters k c;
          c
      in
      if now t -. !start > window then begin
        start := now t;
        count := 0
      end;
      incr count;
      if !count >= packets then begin
        Hashtbl.remove t.spt_counters k;
        switch ()
      end

let handle_data t ~iface pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g -> (
    let src = pkt.Packet.src in
    match Fwd.match_data t.fib g ~src with
    | None ->
      Counters.(incr t.counters ~node:t.node Data_dropped_no_state);
      if tracing t then
        ev t
          (Event.Pkt_drop
             {
               src = Addr.to_string src;
               group = Group.to_string g;
               iface;
               reason = "no-state";
             })
    | Some e when (not (Fwd.is_star e)) && e.Fwd.iif = None ->
      (* An (S,G) entry with a null iif means we are the source's first-hop
         router: data for S arriving from the network is a looped copy
         (e.g. decapsulated by the RP) and must fail the incoming-interface
         check. *)
      Counters.(incr t.counters ~node:t.node Data_dropped_iif)
    | Some e ->
      keepalive t e;
      if Fwd.is_star e then begin
        if Fwd.iif_is e iface then begin
          maybe_spt_switch t g src;
          forward_data t e ~pruned:t.no_mask ~shared:false ~exclude:iface pkt
        end
        else begin
          Counters.(incr t.counters ~node:t.node Data_dropped_iif);
          if tracing t then
            ev t
              (Event.Pkt_drop
                 {
                   src = Addr.to_string src;
                   group = Group.to_string g;
                   iface;
                   reason = "star-iif";
                 })
        end
      end
      else if e.Fwd.rp_bit then begin
        (* Negative cache: data still arriving via the RP tree. *)
        if Fwd.iif_is e iface then
          forward_data t e ~pruned:(aux e).pruned ~shared:true ~exclude:iface pkt
        else begin
          Counters.(incr t.counters ~node:t.node Data_dropped_iif);
          if tracing t then
            ev t
              (Event.Pkt_drop
                 {
                   src = Addr.to_string src;
                   group = Group.to_string g;
                   iface;
                   reason = "neg-cache-iif";
                 })
        end
      end
      else if e.Fwd.spt_bit then begin
        if Fwd.iif_is e iface then forward_sg t e pkt ~shared:false ~exclude:iface
        else begin
          (* RP-tree copies still arrive on the shared interface until the
             divergence prune takes effect upstream.  Dropping them here —
             the [switchover_fallback = false] behaviour, and what a
             literal reading of the iif check prescribes — loses every
             packet whose SPT twin never existed because the source sent it
             before the (S,G) join chain completed.  Forward those
             stragglers over the shared fallback; the identity ring in
             [forward_sg] suppresses the true duplicates (diagnosed from
             the seed=56517 capture; see test/test_replay.ml). *)
          match Fwd.find_star t.fib g with
          | Some star when t.cfg.switchover_fallback && Fwd.iif_is star iface ->
            forward_sg t e pkt ~shared:true ~exclude:iface
          | _ ->
            Counters.(incr t.counters ~node:t.node Data_dropped_iif);
            if tracing t then
              ev t
                (Event.Pkt_drop
                   {
                     src = Addr.to_string src;
                     group = Group.to_string g;
                     iface;
                     reason = "spt-iif";
                   })
        end
      end
      else if Fwd.iif_is e iface then begin
        (* First packet over the new shortest path: transition completes
           (section 3.5, second exception). *)
        e.Fwd.spt_bit <- true;
        if tracing t then
          tr t "spt-bit" "SPT established for (%s, %s)" (Addr.to_string src) (Group.to_string g);
        divergence_prune t e;
        forward_sg t e pkt ~shared:false ~exclude:iface
      end
      else begin
        (* SPT bit clear: fall back to the shared tree if the packet came
           over it (section 3.5, first exception). *)
        match Fwd.find_star t.fib g with
        | Some star when Fwd.iif_is star iface ->
          forward_sg t e pkt ~shared:true ~exclude:iface
        | _ ->
          Counters.(incr t.counters ~node:t.node Data_dropped_iif);
          if tracing t then
            ev t
              (Event.Pkt_drop
                 {
                   src = Addr.to_string src;
                   group = Group.to_string g;
                   iface;
                   reason = "pre-spt-iif";
                 })
      end)

(* {1 Register path (section 3)} *)

let register_suppressed t g src rp =
  t.cfg.register_suppress
  &&
  match Fwd.find_sg t.fib g src with
  | None -> false
  | Some e -> (
    match Rib.rpf_iface t.rib rp with
    | None -> false
    | Some i -> List.mem i (Fwd.live_oifs e ~now:(now t)))

let rec handle_register t inner =
  match Mdata.group inner with
  | None -> ()
  | Some g ->
    let src = inner.Packet.src in
    if is_rp_for t g then begin
      (* Deliver down the shared tree — unless the source's data is already
         arriving natively over the shortest path (SPT bit set), in which
         case the register copy would only duplicate it. *)
      let native =
        match Fwd.find_sg t.fib g src with Some sg -> sg.Fwd.spt_bit | None -> false
      in
      (match Fwd.find_star t.fib g with
      | Some star when not native -> (
        (* The shared tree, minus the interfaces pruned for this source. *)
        match Fwd.find_sg t.fib g src with
        | Some sg ->
          forward_data t sg ~pruned:(aux sg).pruned ~shared:true ~exclude:Topology.no_iface inner
        | None -> forward_data t star ~pruned:t.no_mask ~shared:false ~exclude:Topology.no_iface inner)
      | _ -> ());
      (* ...and join toward the source so data starts flowing natively
         (the RP "responds by sending a join toward the source"). *)
      let e = ensure_sg t g src ~rp_bit:false in
      keepalive t e
    end

and originate_data t ~incoming pkt =
  match Mdata.group pkt with
  | None -> ()
  | Some g ->
    let src = pkt.Packet.src in
    let rps = rps_for t g in
    if rps <> [] then begin
      (* Forward natively wherever state already exists. *)
      (match Fwd.match_data t.fib g ~src with
      | Some e ->
        keepalive t e;
        let exclude = match incoming with Some i -> i | None -> Topology.no_iface in
        forward_data t e ~pruned:(mask_of t e) ~shared:false ~exclude pkt
      | None -> ());
      (* Register (data piggybacked) to every RP of the group. *)
      List.iter
        (fun rp ->
          if Addr.equal rp t.addr then
            (* The RP is the source's first-hop router: the data "needed to
               be delivered there anyway" (section 4), so no register —
               the native forwarding above already used the shared tree.
               Just make sure the (S,G) entry exists. *)
            ignore (ensure_sg t g src ~rp_bit:false)
          else if not (register_suppressed t g src rp) then begin
            Counters.(incr t.counters ~node:t.node Registers_sent);
            if tracing t then
              ev t (Event.Register { group = Group.to_string g; source = Addr.to_string src });
            let reg = Message.register_packet ~src:t.addr ~rp pkt in
            send_unicast t reg
          end
          else
            (* Suppression onset stands in for the RP's explicit
               register-stop (the model infers it from the (S,G) oif state
               rather than exchanging a message): emit the event once per
               entry so captures show when encapsulation ceased. *)
            match Fwd.find_sg t.fib g src with
            | Some e ->
              let a = aux e in
              if not a.reg_stop_seen then begin
                a.reg_stop_seen <- true;
                if tracing t then
                  ev t
                    (Event.Register_stop
                       { group = Group.to_string g; source = Addr.to_string src })
              end
            | None -> ())
        rps
    end

and send_unicast t pkt =
  match pkt.Packet.dst with
  | Packet.Multicast _ -> ()
  | Packet.Unicast dst -> (
    match t.rib.Rib.next_hop dst with
    | None -> ()
    | Some (iface, next) ->
      Counters.(incr t.counters ~node:t.node Unicast_forwarded);
      Net.send t.net t.node ~iface ~to_node:next pkt)

let local_source_addr ?(host = 1) t = Addr.host ~router:t.node host

let send_local_data t ~group ?(host = 1) ?size () =
  let pkt =
    Mdata.make ~src:(local_source_addr ~host t) ~group ~seq:t.local_seq ~sent_at:(now t) ?size ()
  in
  t.local_seq <- t.local_seq + 1;
  originate_data t ~incoming:None pkt

(* Is this data packet from a host on a directly attached subnet this
   router is DR for?  (First-hop router test, section 3.) *)
let is_dr t lid =
  Topology.others_on_link (Net.topo t.net) lid t.node
  |> List.for_all (fun v -> (not (Net.node_up t.net v)) || v > t.node)

let is_local_origin t ~iface src =
  (* Proxying for an attached dense-mode region (section 4): any source
     behind a proxy interface is treated as directly connected. *)
  List.mem iface t.proxy_ifaces
  ||
  let link = Topology.link_of_iface (Net.topo t.net) t.node iface in
  link.Topology.is_lan
  && (match Addr.host_router_index src with
     | Some r -> Array.mem r link.Topology.ends
     | None -> false)
  && is_dr t link.Topology.id

(* {1 Join/Prune reception (sections 3.2, 3.3, 3.7)} *)

let lan_with_peers t iface =
  let link = Topology.link_of_iface (Net.topo t.net) t.node iface in
  link.Topology.is_lan && List.length (Topology.others_on_link (Net.topo t.net) link.Topology.id t.node) >= 2

let process_join t ~iface (je : Message.jp_entry) g =
  let holdtime_end = now t +. t.cfg.oif_holdtime in
  if je.Message.plen < 32 && not je.Message.wc then begin
    (* Aggregated source join (section 4): refresh every matching (S,G)
       this router already holds.  Aggregates never instantiate state —
       that is what keeps the "large fanout" problem the paper worries
       about at bay; tree construction stays per-source via triggered
       /32 joins. *)
    let prefix = Pim_net.Prefix.make je.Message.addr je.Message.plen in
    List.iter
      (fun (e : Fwd.entry) ->
        match e.Fwd.source with
        | Some src when (not e.Fwd.rp_bit) && Pim_net.Prefix.contains prefix src ->
          Fwd.add_oif e iface ~expires:holdtime_end ~local:false;
          keepalive t e
        | _ -> ())
      (Fwd.group_entries t.fib g)
  end
  else if je.Message.wc then begin
    let e = ensure_star t g ~rp:je.Message.addr in
    (if e.Fwd.rp <> Some je.Message.addr then begin
       (* The joiner rendezvouses at a different RP (failover, section
          3.9): re-target the shared-tree entry toward it. *)
       let upstream = compute_upstream t je.Message.addr in
       if tracing t then
         tr t "rp-retarget" "group %s: shared tree moves to RP %s" (Group.to_string g)
           (Addr.to_string je.Message.addr);
       e.Fwd.rp <- Some je.Message.addr;
       e.Fwd.iif <- Option.map fst upstream;
       (match e.Fwd.iif with Some i -> Fwd.remove_oif e i | None -> ());
       e.Fwd.rp_deadline <- now t +. t.cfg.rp_timeout;
       (aux e).upstream <- upstream;
       triggered_join t e
     end);
    Fwd.add_oif e iface ~expires:holdtime_end ~local:false;
    keepalive t e;
    (* Footnote 12: refreshing a "(*,G)" oif also refreshes the negative
       caches' view of it — our mask representation needs no action, but
       (S,G) SPT entries that explicitly carry the oif are refreshed. *)
    List.iter
      (fun (sg : Fwd.entry) ->
        if not (Fwd.is_star sg) then
          match Fwd.find_oif sg iface with
          | Some o when not o.Fwd.local -> o.Fwd.expires <- Float.max o.Fwd.expires holdtime_end
          | _ -> ())
      (Fwd.group_entries t.fib g)
  end
  else if je.Message.rp then begin
    (* RP-bit join: cancel a negative cache for this source on this
       interface (prune override on the shared tree). *)
    match Fwd.find_sg t.fib g je.Message.addr with
    | Some e when e.Fwd.rp_bit ->
      Hashtbl.remove (aux e).pruned iface;
      keepalive t e
    | _ -> ()
  end
  else begin
    let e = ensure_sg t g je.Message.addr ~rp_bit:false in
    Fwd.add_oif e iface ~expires:holdtime_end ~local:false;
    keepalive t e
  end

let process_prune t ~iface (pe : Message.jp_entry) g =
  let lan = lan_with_peers t iface in
  let window_removal (e : Fwd.entry) =
    match Fwd.find_oif e iface with
    | Some o when o.Fwd.local -> ()  (* local members outrank peer prunes *)
    | Some o ->
      if lan then
        (* Keep the oif alive long enough for another LAN router to
           override the prune with a join (section 3.7). *)
        o.Fwd.expires <- Float.min o.Fwd.expires (now t +. t.cfg.prune_override_window)
      else begin
        Fwd.remove_oif e iface;
        if not (Fwd.has_live_oif e ~now:(now t)) then triggered_prune t e
      end
    | None -> ()
  in
  if pe.Message.wc then Option.iter window_removal (Fwd.find_star t.fib g)
  else if pe.Message.rp then begin
    (* Negative-cache prune: stop sending this source's shared-tree
       traffic down [iface] (section 3.3). *)
    let e = ensure_sg t g pe.Message.addr ~rp_bit:true in
    if e.Fwd.rp_bit then begin
      let a = aux e in
      Hashtbl.replace a.pruned iface (now t +. t.cfg.oif_holdtime);
      keepalive t e;
      (* Propagate toward the RP once nothing downstream wants the
         source's RP-tree traffic any more. *)
      if not (has_shared_oif t e a) then triggered_prune t e
    end
    else begin
      (* An SPT entry already exists here: the pruned iface must stop
         receiving this source's traffic through the shared limb. *)
      let a = aux e in
      Hashtbl.replace a.pruned iface (now t +. t.cfg.oif_holdtime);
      window_removal e
    end
  end
  else Option.iter window_removal (Fwd.find_sg t.fib g pe.Message.addr)

(* Overheard messages on multi-access networks: suppress duplicate joins,
   override prunes that would cut us off (section 3.7). *)
let overhear_join t ~iface (je : Message.jp_entry) g ~target =
  let consider e =
    match e with
    | Some (e : Fwd.entry) ->
      let a = aux e in
      let same_upstream =
        match a.upstream with
        | Some (i, up) -> i = iface && Addr.equal (Addr.router up) target
        | None -> false
      in
      if same_upstream && Fwd.iif_is e iface then begin
        a.suppress_until <- now t +. (0.9 *. t.cfg.jp_period);
        a.override_pending <- false;
        if tracing t then tr t "suppress" "join suppressed for %a" Fwd.pp_entry e
      end
    | None -> ()
  in
  if je.Message.wc then consider (Fwd.find_star t.fib g)
  else if not je.Message.rp then consider (Fwd.find_sg t.fib g je.Message.addr)

let schedule_override t (e : Fwd.entry) ~iface ~target je =
  let a = aux e in
  if not a.override_pending then begin
    a.override_pending <- true;
    let jitter = 0.5 +. (0.5 *. float_of_int (t.node mod 8) /. 8.) in
    let delay = t.cfg.prune_override_delay *. jitter in
    ignore
      (Engine.schedule t.eng ~after:delay (fun () ->
           if a.override_pending then begin
             a.override_pending <- false;
             if tracing t then tr t "override" "overriding prune for %a" Message.pp_jp_entry je;
             send_jp t ~iface ~target ~group:e.Fwd.group ~joins:[ je ] ~prunes:[]
           end))
  end

let overhear_prune t ~iface (pe : Message.jp_entry) g ~target =
  (* Only meaningful on multi-access networks with at least the pruning
     router and the upstream router besides us. *)
  if lan_with_peers t iface then begin
    if pe.Message.wc then begin
      match Fwd.find_star t.fib g with
      | Some e
        when Fwd.iif_is e iface && has_effective_oif t e (aux e) ->
        schedule_override t e ~iface ~target (Message.jp_entry ~wc:true ~rp:true pe.Message.addr)
      | _ -> ()
    end
    else if pe.Message.rp then begin
      (* A peer pruned source S off the shared tree; if we still depend on
         the shared tree for S, override with an RP-bit join. *)
      let wants_via_shared =
        (* Any (S,G) entry of ours means we either pruned S ourselves or
           receive it over its SPT; only without one do we depend on the
           shared tree for S. *)
        Fwd.find_sg t.fib g pe.Message.addr = None
      in
      match Fwd.find_star t.fib g with
      | Some star
        when wants_via_shared && Fwd.iif_is star iface
             && has_effective_oif t star (aux star) ->
        schedule_override t star ~iface ~target (Message.jp_entry ~rp:true pe.Message.addr)
      | _ -> ()
    end
    else begin
      match Fwd.find_sg t.fib g pe.Message.addr with
      | Some e
        when (not e.Fwd.rp_bit) && Fwd.iif_is e iface
             && has_effective_oif t e (aux e) ->
        schedule_override t e ~iface ~target (Message.jp_entry pe.Message.addr)
      | _ -> ()
    end
  end

let handle_jp t ~iface (m : Message.join_prune) =
  if Addr.equal m.Message.target t.addr then begin
    List.iter (fun je -> process_join t ~iface je m.Message.group) m.Message.joins;
    List.iter (fun pe -> process_prune t ~iface pe m.Message.group) m.Message.prunes
  end
  else begin
    List.iter (fun je -> overhear_join t ~iface je m.Message.group ~target:m.Message.target) m.Message.joins;
    List.iter (fun pe -> overhear_prune t ~iface pe m.Message.group ~target:m.Message.target) m.Message.prunes
  end

(* {1 RP reachability and failover (sections 3.2, 3.9)} *)

let handle_rp_reach t ~iface ~group ~rp =
  match Fwd.find_star t.fib group with
  | Some e when Fwd.iif_is e iface && rp_is e rp ->
    e.Fwd.rp_deadline <- now t +. t.cfg.rp_timeout;
    keepalive t e;
    let pkt = Message.rp_reachability_packet ~src:t.addr ~group ~rp in
    ignore (walk_effective t e ~pruned:t.no_mask ~exclude:iface send_ctrl t pkt ())
  | _ -> ()

let originate_rp_reach t =
  Fwd.iter t.fib (fun (e : Fwd.entry) ->
      if Fwd.is_star e && rp_is e t.addr then begin
        let pkt = Message.rp_reachability_packet ~src:t.addr ~group:e.Fwd.group ~rp:t.addr in
        Counters.(incr t.counters ~node:t.node Rp_reach_sent);
        ignore (walk_effective t e ~pruned:t.no_mask ~exclude:Topology.no_iface send_ctrl t pkt ())
      end)

let rp_failover t (e : Fwd.entry) =
  let current = e.Fwd.rp in
  let alternates =
    rps_for t e.Fwd.group
    |> List.filter (fun rp -> Some rp <> current)
    |> List.filter (fun rp -> Addr.equal rp t.addr || t.rib.Rib.distance rp <> None)
  in
  match alternates with
  | [] -> e.Fwd.rp_deadline <- now t +. t.cfg.rp_timeout (* keep waiting *)
  | rp :: _ ->
    Counters.(incr t.counters ~node:t.node Rp_failovers);
    if tracing t then
      ev t
        (Event.Rp_failover
           {
             group = Group.to_string e.Fwd.group;
             from_rp = Option.map Addr.to_string current;
             to_rp = Addr.to_string rp;
           });
    if tracing t then
      tr t "rp-failover" "group %s: RP %s unreachable, joining %s"
        (Group.to_string e.Fwd.group)
        (match current with Some a -> Addr.to_string a | None -> "?")
        (Addr.to_string rp);
    let upstream = compute_upstream t rp in
    e.Fwd.rp <- Some rp;
    e.Fwd.iif <- Option.map fst upstream;
    (* Only interfaces with directly-connected members survive the move to
       the new RP (section 3.9). *)
    e.Fwd.oifs <- List.filter (fun (o : Fwd.oif) -> o.local) e.Fwd.oifs;
    e.Fwd.rp_deadline <- now t +. t.cfg.rp_timeout;
    (aux e).upstream <- upstream;
    keepalive t e;
    triggered_join t e

(* {1 Reaction to unicast routing changes (section 3.8)} *)

let update_rpf t =
  Fwd.iter t.fib (fun (e : Fwd.entry) ->
      match entry_target e with
      | None -> ()
      | Some target ->
        let a = aux e in
        let fresh = compute_upstream t target in
        if fresh <> a.upstream then begin
          if tracing t then
            tr t "rpf-change" "%a: upstream %s -> %s" Fwd.pp_entry e
              (match a.upstream with Some (_, n) -> string_of_int n | None -> "-")
              (match fresh with Some (_, n) -> string_of_int n | None -> "-");
          (* Prune from the old upstream if the old path still works. *)
          (match (a.upstream, jp_entry_of e) with
          | Some (old_iface, old_up), Some je ->
            send_jp t ~iface:old_iface ~target:(Addr.router old_up) ~group:e.Fwd.group
              ~joins:[] ~prunes:[ je ]
          | _ -> ());
          a.upstream <- fresh;
          e.Fwd.iif <- Option.map fst fresh;
          (* The new incoming interface must not remain an oif. *)
          (match e.Fwd.iif with Some i -> Fwd.remove_oif e i | None -> ());
          triggered_join t e
        end)

(* {1 Periodic soft-state machinery (sections 3.4, 3.6)} *)

(* Canonical order for join/prune entries inside a message section, so
   bundles serialize identically regardless of hash layout. *)
let compare_jp_entry (a : Message.jp_entry) (b : Message.jp_entry) =
  match Addr.compare a.Message.addr b.Message.addr with
  | 0 -> (
    match Int.compare a.Message.plen b.Message.plen with
    | 0 -> (
      match Bool.compare a.Message.wc b.Message.wc with
      | 0 -> Bool.compare a.Message.rp b.Message.rp
      | c -> c)
    | c -> c)
  | c -> c

(* Bindings of [tbl] sorted by [cmp] on the key — a deterministic
   iteration snapshot for tables whose visit order escapes into
   protocol messages. *)
let sorted_bindings cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (k, _) (k', _) -> cmp k k')

let periodic_refresh t =
  (* Per-group sections, bucketed by upstream neighbor; all of a neighbor's
     sections leave in one bundled message (section 4's message-size
     aggregation). *)
  let buckets : (Topology.iface * Topology.node * Group.t, Message.jp_entry list ref * Message.jp_entry list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let bucket iface up g =
    let k = (iface, up, g) in
    match Hashtbl.find_opt buckets k with
    | Some b -> b
    | None ->
      let b = (ref [], ref []) in
      Hashtbl.replace buckets k b;
      b
  in
  let n = now t in
  Fwd.iter t.fib (fun (e : Fwd.entry) ->
      let a = aux e in
      match a.upstream with
      | None -> ()
      | Some (iface, up) ->
        let suppressed = n < a.suppress_until in
        if Fwd.is_star e then begin
          if (not suppressed) && Fwd.has_live_oif e ~now:n then
            match jp_entry_of e with
            | Some je ->
              let joins, _ = bucket iface up e.Fwd.group in
              joins := je :: !joins
            | None -> ()
        end
        else if e.Fwd.rp_bit then begin
          (* Negative cache with nothing downstream: keep the prune state
             alive toward the RP (footnote 13). *)
          if not (has_shared_oif t e a) then
            match (jp_entry_of e, e.Fwd.source) with
            | Some _, Some s ->
              let _, prunes = bucket iface up e.Fwd.group in
              prunes := Message.jp_entry ~rp:true s :: !prunes
            | _ -> ()
        end
        else begin
          let wanted = has_effective_oif t e a || is_rp_for t e.Fwd.group in
          if (not suppressed) && wanted then begin
            match e.Fwd.source with
            | Some s ->
              let joins, _ = bucket iface up e.Fwd.group in
              joins := Message.jp_entry s :: !joins
            | None -> ()
          end;
          (* Periodically re-assert the shared-tree prune for diverged
             sources (section 3.4). *)
          if e.Fwd.spt_bit then begin
            match (Fwd.find_star t.fib e.Fwd.group, e.Fwd.source) with
            | Some star, Some s when star.Fwd.iif <> e.Fwd.iif -> (
              match (aux star).upstream with
              | Some (siface, sup) ->
                let _, prunes = bucket siface sup e.Fwd.group in
                prunes := Message.jp_entry ~rp:true s :: !prunes
              | None -> ())
            | _ -> ()
          end
        end);
  (* Optional source aggregation (section 4): collapse plain /32 joins
     whose sources share a first-hop subnet into one /24 entry. *)
  let aggregate entries =
    if not t.cfg.Config.aggregate_sources then entries
    else begin
      let plain, rest =
        List.partition
          (fun (e : Message.jp_entry) ->
            (not e.Message.wc) && (not e.Message.rp) && e.Message.plen = 32)
          entries
      in
      let by_prefix = Hashtbl.create 4 in
      List.iter
        (fun (e : Message.jp_entry) ->
          let p = Pim_net.Prefix.make e.Message.addr 24 in
          let cur = Option.value (Hashtbl.find_opt by_prefix p) ~default:[] in
          Hashtbl.replace by_prefix p (e :: cur))
        plain;
      Hashtbl.fold
        (fun p es acc ->
          match es with
          | [ single ] -> single :: acc
          | _ :: _ :: _ ->
            Message.jp_entry ~plen:24 (Pim_net.Prefix.network p) :: acc
          | [] -> acc)
        by_prefix rest
      |> List.sort compare_jp_entry
    end
  in
  (* Regroup by upstream and emit one bundle per neighbor. *)
  let per_upstream : (Topology.iface * Topology.node, Message.join_prune list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let compare_bucket_key (i, u, g) (i', u', g') =
    match Int.compare i i' with
    | 0 -> ( match Int.compare u u' with 0 -> Group.compare g g' | c -> c)
    | c -> c
  in
  List.iter
    (fun ((iface, up, g), (joins, prunes)) ->
      let joins = ref (aggregate !joins) in
      if !joins <> [] || !prunes <> [] then begin
        let sections =
          match Hashtbl.find_opt per_upstream (iface, up) with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace per_upstream (iface, up) l;
            l
        in
        sections :=
          {
            Message.target = Addr.router up;
            origin = t.node;
            group = g;
            joins = !joins;
            prunes = !prunes;
            holdtime = t.cfg.oif_holdtime;
          }
          :: !sections
      end)
    (sorted_bindings compare_bucket_key buckets);
  let compare_upstream_key (i, u) (i', u') =
    match Int.compare i i' with 0 -> Int.compare u u' | c -> c
  in
  List.iter
    (fun ((iface, _), sections) ->
      Counters.(incr t.counters ~node:t.node Jp_msgs_sent);
      List.iter
        (fun (m : Message.join_prune) ->
          Counters.(add t.counters ~node:t.node Joins_sent (List.length m.Message.joins));
          Counters.(add t.counters ~node:t.node Prunes_sent (List.length m.Message.prunes)))
        !sections;
      Net.send t.net t.node ~iface (Message.bundle_packet ~src:t.addr !sections))
    (sorted_bindings compare_upstream_key per_upstream)

let sweep t =
  let n = now t in
  Fwd.iter t.fib (fun (e : Fwd.entry) ->
      let a = aux e in
      (* Expired shared-tree prune masks grow back (section 1.1 style
         soft state). *)
      if Hashtbl.length a.pruned > 0 then begin
        let dead_masks =
          Hashtbl.fold (fun i exp acc -> if exp <= n then i :: acc else acc) a.pruned []
          |> List.sort Int.compare
        in
        List.iter (Hashtbl.remove a.pruned) dead_masks
      end;
      (* Directly connected members are authoritative: their presence keeps
         the entry alive without downstream joins (section 3.1). *)
      if List.exists (fun (o : Fwd.oif) -> o.Fwd.local) e.Fwd.oifs then keepalive t e;
      ignore (Fwd.prune_expired_oifs e ~now:n);
      (* "When the outgoing interface list is null a prune message is sent
         upstream" (section 3.6).  The effective list counts inherited
         shared-tree interfaces, so a last-hop (S,G) entry whose receivers
         left via the shared tree also prunes promptly instead of letting
         the upstream oifs age out one holdtime per hop. *)
      let wanted = has_effective_oif t e a || is_rp_for t e.Fwd.group in
      if a.was_wanted && not wanted then triggered_prune t e;
      a.was_wanted <- wanted;
      (* RP failover at routers with directly connected members: either
         the RP stopped proving liveness (deadline passed), or a dynamic
         mapping change dropped it from the group's RP list (BSR churn)
         — in which case re-target immediately rather than waiting out
         the reachability timeout. *)
      (if Fwd.is_star e && List.exists (fun (o : Fwd.oif) -> o.Fwd.local) e.Fwd.oifs then
         let stale =
           match (e.Fwd.rp, rps_for t e.Fwd.group) with
           | Some cur, (_ :: _ as rps) -> not (List.exists (Addr.equal cur) rps)
           | _ -> false
         in
         if stale || e.Fwd.rp_deadline < n then rp_failover t e);
      if e.Fwd.expires < n then delete_entry t e);
  (* Memberships recorded before any RP mapping was known (election still
     converging at join time): retry until one appears. *)
  List.iter
    (fun (g, iface) ->
      if Fwd.find_star t.fib g = None then
        match select_rp t g with
        | Some rp ->
          let e = ensure_star t g ~rp in
          Fwd.add_oif e iface ~expires:n ~local:true;
          keepalive t e
        | None -> ())
    t.local_members

(* {1 Packet dispatch} *)

let handle_packet t ~iface pkt =
  if not (Pim_igmp.Router.handle_packet t.igmp ~iface pkt) then begin
    match pkt.Packet.payload with
    | Message.Join_prune m -> handle_jp t ~iface m
    | Message.Join_prune_bundle ms -> List.iter (fun m -> handle_jp t ~iface m) ms
    | Message.Rp_reachability { group; rp } -> handle_rp_reach t ~iface ~group ~rp
    | Message.Register inner -> (
      match pkt.Packet.dst with
      | Packet.Unicast dst when Addr.equal dst t.addr -> handle_register t inner
      | _ -> send_unicast t pkt)
    | Mdata.Data _ ->
      if is_local_origin t ~iface pkt.Packet.src then originate_data t ~incoming:(Some iface) pkt
      else handle_data t ~iface pkt
    | _ -> (
      (* Transit unicast traffic (e.g. registers using other substrates). *)
      match pkt.Packet.dst with
      | Packet.Unicast dst when not (Addr.equal dst t.addr) -> send_unicast t pkt
      | _ -> ())
  end

let create ?(config = Config.default) ?igmp_config ?trace ?rp_lookup ~net ~rib ~rp_set node =
  let eng = Net.engine net in
  let igmp = Pim_igmp.Router.create ?config:igmp_config net ~node in
  let t =
    {
      node;
      addr = Addr.router node;
      net;
      eng;
      rib;
      rp_set;
      rp_lookup;
      cfg = config;
      igmp;
      fib = Fwd.create ();
      trace;
      no_mask = Hashtbl.create 1;
      spt_counters = Hashtbl.create 8;
      counters = Net.counters net;
      local_cbs = Pim_util.Vec.create ();
      local_seq = 0;
      proxy_ifaces = [];
      local_members = [];
    }
  in
  Net.set_handler net node (fun ~iface pkt -> handle_packet t ~iface pkt);
  (* IGMP-driven membership: only the subnet's DR acts (section 3.1). *)
  Pim_igmp.Router.on_join igmp (fun ~iface g ->
      let link = Topology.link_of_iface (Net.topo net) node iface in
      if is_dr t link.Topology.id then add_local_member t g ~iface);
  Pim_igmp.Router.on_leave igmp (fun ~iface g -> drop_local_member t g ~iface);
  (* Timers: staggered so routers do not act in lockstep. *)
  let frac = float_of_int (node mod 16) /. 16. in
  ignore
    (Engine.every eng
       ~start:(config.Config.jp_period *. (0.2 +. (0.6 *. frac)))
       ~interval:config.Config.jp_period
       (fun () -> periodic_refresh t));
  ignore
    (Engine.every eng
       ~start:(config.Config.sweep_interval *. (0.5 +. (0.5 *. frac)))
       ~interval:config.Config.sweep_interval
       (fun () -> sweep t));
  ignore
    (Engine.every eng
       ~start:(config.Config.rp_reach_period *. (0.3 +. (0.4 *. frac)))
       ~interval:config.Config.rp_reach_period
       (fun () -> originate_rp_reach t));
  (* React to unicast routing changes (section 3.8). *)
  rib.Rib.subscribe (fun () -> update_rpf t);
  t
