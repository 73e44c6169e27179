module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters
module Trace = Pim_sim.Trace
module Event = Pim_sim.Event
module Topology = Pim_graph.Topology
module Rib = Pim_routing.Rib
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Packet = Pim_net.Packet

type config = {
  bootstrap_period : float;
  bsr_holdtime : float;
  crp_holdtime : float;
}

let default = { bootstrap_period = 60.; bsr_holdtime = 150.; crp_holdtime = 150. }

let fast = { bootstrap_period = 2.5; bsr_holdtime = 7.5; crp_holdtime = 7.5 }

(* Worst case from an RP crash to every router seeing a mapping without it:
   the dead candidate's record survives one holdtime at the BSR, and the
   purged RP-set still has to ride one bootstrap flood out (plus one period
   of phase error). *)
let failover_budget cfg = cfg.crp_holdtime +. (2. *. cfg.bootstrap_period)

type role = {
  cbsr_priority : int option;
  crp_records : (int * Group.t list) list;
}

let silent = { cbsr_priority = None; crp_records = [] }

(* A candidate-RP record as this node has learned it: one per
   (address, coverage) pair, so a candidate can advertise distinct
   priorities for specific groups and a wildcard fallback. *)
type rp_rec = {
  priority : int;
  holdtime : float;
  mutable deadline : float;
}

type rec_key = Addr.t * Group.t list

let compare_coverage = List.compare Group.compare

let compare_rec_key (a1, c1) (a2, c2) =
  match Addr.compare a1 a2 with 0 -> compare_coverage c1 c2 | c -> c

type agent = {
  node : Topology.node;
  addr : Addr.t;
  rib : Rib.t;
  role : role;
  mutable bsr : (Addr.t * int) option;  (* accepted BSR and its priority *)
  mutable bsr_seq : int;  (* last accepted bootstrap sequence number *)
  mutable bsr_deadline : float;
  mutable my_seq : int;  (* own origination counter (when elected) *)
  view : (rec_key, rp_rec) Hashtbl.t;  (* RP-set learned from bootstraps *)
  table : (rec_key, rp_rec) Hashtbl.t;  (* adverts collected while BSR *)
  watch : (Group.t, unit) Hashtbl.t;  (* groups ever looked up here *)
  cache : (Group.t, Addr.t list) Hashtbl.t;  (* last non-empty mapping *)
  last : (Group.t, Addr.t list) Hashtbl.t;  (* last computed (event dedup) *)
}

type t = {
  net : Net.t;
  eng : Engine.t;
  cfg : config;
  trace : Trace.t option;
  forward_unicast : bool;
  agents : agent array;
  counters : Counters.t;
}

let config t = t.cfg

let ev t node event =
  match t.trace with None -> () | Some trc -> Trace.emit trc ~node event

(* Higher (priority, address) wins, exactly the PIM-SM BSR tie-break. *)
let pref_compare (p1, a1) (p2, a2) =
  match Int.compare p1 p2 with 0 -> Addr.compare a1 a2 | c -> c

let self_pref a = Option.map (fun p -> (p, a.addr)) a.role.cbsr_priority

(* Deterministic per-(group, RP) mix for load-spreading tie-breaks — the
   hash-mapping step of the bootstrap mechanism. *)
let group_rp_mix g rp =
  let gi = Int32.to_int (Addr.to_int32 (Group.to_addr g)) in
  let ri = Int32.to_int (Addr.to_int32 rp) in
  let x = (gi * 0x9e3779b1) lxor (ri * 0x85ebca6b) in
  let x = x lxor (x lsr 15) in
  x land 0x3fffffff

let sorted_recs tbl =
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare_rec_key k1 k2)

let expire_recs tbl ~now =
  Hashtbl.filter_map_inplace (fun _ r -> if r.deadline <= now then None else Some r) tbl

let install_rec tbl (rp, coverage) ~priority ~holdtime ~now =
  let key = (rp, List.sort Group.compare coverage) in
  match Hashtbl.find_opt tbl key with
  | Some r ->
    r.deadline <- Float.max r.deadline (now +. holdtime)
  | None -> Hashtbl.replace tbl key { priority; holdtime; deadline = now +. holdtime }

(* The ranked RP list for a group from this node's current view: records
   explicitly covering the group outrank wildcard records (longest
   match), which remain as failover alternates; within each class,
   higher priority first, then the group-address hash spreads groups over
   equal-priority candidates, addresses breaking the final tie. *)
let compute_mapping a g ~now =
  let live =
    sorted_recs a.view
    |> List.filter (fun ((_, coverage), (r : rp_rec)) ->
           r.deadline > now && (coverage = [] || List.exists (Group.equal g) coverage))
  in
  let rank pool =
    pool
    |> List.map (fun ((rp, _), (r : rp_rec)) -> (r.priority, group_rp_mix g rp, rp))
    |> List.sort (fun (p1, h1, a1) (p2, h2, a2) ->
           match Int.compare p2 p1 with
           | 0 -> ( match Int.compare h2 h1 with 0 -> Addr.compare a2 a1 | c -> c)
           | c -> c)
    |> List.map (fun (_, _, rp) -> rp)
  in
  let specific, wildcard = List.partition (fun ((_, coverage), _) -> coverage <> []) live in
  rank specific @ rank wildcard
  |> List.fold_left (fun acc rp -> if List.exists (Addr.equal rp) acc then acc else rp :: acc) []
  |> List.rev

let lookup t node g =
  let a = t.agents.(node) in
  Hashtbl.replace a.watch g ();
  match compute_mapping a g ~now:(Engine.now t.eng) with
  | [] -> ( match Hashtbl.find_opt a.cache g with Some rps -> rps | None -> [])
  | rps ->
    Hashtbl.replace a.cache g rps;
    rps

let elected_bsr t node = Option.map fst t.agents.(node).bsr

let mapping t node groups =
  List.map (fun g -> (g, lookup t node g)) (List.sort_uniq Group.compare groups)

(* Detect and announce mapping changes for every group this node has ever
   been asked about; the cache keeps the last non-empty mapping so lookups
   degrade to it while the view is empty (last-known-RP fallback). *)
let check_mappings t a ~now =
  Hashtbl.fold (fun g () acc -> g :: acc) a.watch []
  |> List.sort Group.compare
  |> List.iter (fun g ->
         let rps = compute_mapping a g ~now in
         let prev = Option.value (Hashtbl.find_opt a.last g) ~default:[] in
         if not (List.equal Addr.equal rps prev) then begin
           Hashtbl.replace a.last g rps;
           if rps <> [] then Hashtbl.replace a.cache g rps;
           Counters.(incr t.counters ~node:a.node Mapping_changes);
           ev t a.node
             (Event.Rp_mapping
                {
                  group = Group.to_string g;
                  rp = (match rps with rp :: _ -> Some (Addr.to_string rp) | [] -> None);
                })
         end)

let flood_bootstrap t a ~bsr ~bsr_priority ~seq ~crps ~except =
  Array.iter
    (fun (iface, _) ->
      if Some iface <> except then
        Net.send t.net a.node ~iface
          (Message.bootstrap_packet ~src:a.addr ~bsr ~bsr_priority ~seq crps))
    (Topology.ifaces (Net.topo t.net) a.node)

let accept_bsr t a ~bsr ~bsr_priority ~seq ~now =
  let changed =
    match a.bsr with Some (cur, _) -> not (Addr.equal cur bsr) | None -> true
  in
  a.bsr <- Some (bsr, bsr_priority);
  a.bsr_seq <- seq;
  a.bsr_deadline <- now +. t.cfg.bsr_holdtime;
  if changed then
    ev t a.node (Event.Bsr_elected { bsr = Addr.to_string bsr; priority = bsr_priority })

let handle_bootstrap t a ~iface ~bsr ~bsr_priority ~seq ~crps =
  let now = Engine.now t.eng in
  let incoming = (bsr_priority, bsr) in
  (* A better local candidacy suppresses inferior floods (the node will
     assert its own at the next tick); our own flood echoed back is
     rejected by the sequence check. *)
  let beats_self =
    match self_pref a with
    | Some sp -> pref_compare incoming sp >= 0
    | None -> true
  in
  let accept =
    beats_self
    &&
    match a.bsr with
    | Some (cur, _) when Addr.equal cur bsr -> seq > a.bsr_seq
    | Some (cur, curp) -> pref_compare incoming (curp, cur) > 0
    | None -> true
  in
  if accept then begin
    accept_bsr t a ~bsr ~bsr_priority ~seq ~now;
    List.iter
      (fun (c : Message.crp) ->
        install_rec a.view (c.Message.crp_addr, c.Message.coverage)
          ~priority:c.Message.priority ~holdtime:c.Message.crp_holdtime ~now)
      crps;
    Counters.(incr t.counters ~node:a.node Bootstraps_forwarded);
    flood_bootstrap t a ~bsr ~bsr_priority ~seq ~crps ~except:(Some iface);
    check_mappings t a ~now
  end

let handle_crp_advert t a (c : Message.crp) =
  let now = Engine.now t.eng in
  install_rec a.table (c.Message.crp_addr, c.Message.coverage) ~priority:c.Message.priority
    ~holdtime:c.Message.crp_holdtime ~now

let tick t a () =
  let now = Engine.now t.eng in
  expire_recs a.view ~now;
  expire_recs a.table ~now;
  (match a.bsr with
  | Some (cur, _) when a.bsr_deadline <= now && not (Addr.equal cur a.addr) -> a.bsr <- None
  | _ -> ());
  (* Candidate-BSR self-election: step up when no (or an inferior) BSR is
     known — covers both cold start and a crashed BSR timing out. *)
  (match self_pref a with
  | Some ((p, _) as sp) ->
    let step_up =
      match a.bsr with
      | None -> true
      | Some (cur, curp) -> (not (Addr.equal cur a.addr)) && pref_compare sp (curp, cur) > 0
    in
    if step_up then begin
      Counters.(incr t.counters ~node:a.node Elections_won);
      accept_bsr t a ~bsr:a.addr ~bsr_priority:p ~seq:a.my_seq ~now
    end
  | None -> ());
  let elected_self =
    match a.bsr with Some (cur, _) -> Addr.equal cur a.addr | None -> false
  in
  (* Candidate-RP advertising: the elected BSR installs its own records
     directly; everyone else unicasts toward the BSR it knows, silently
     retrying next period while no BSR (or no route to it) exists — the
     soft-state backoff that rides out partitions. *)
  (match (a.role.crp_records, a.bsr) with
  | [], _ | _, None -> ()
  | _, Some (bsr_addr, _) ->
    List.iter
      (fun (priority, coverage) ->
        let c = Message.crp ~priority ~holdtime:t.cfg.crp_holdtime ~coverage a.addr in
        if elected_self then handle_crp_advert t a c
        else
          match Rib.next_hop a.rib bsr_addr with
          | None -> ()
          | Some (iface, _) ->
            Counters.(incr t.counters ~node:a.node Adverts_sent);
            ev t a.node
              (Event.Candidate_rp
                 {
                   rp = Addr.to_string a.addr;
                   priority;
                   groups = List.length coverage;
                 });
            Net.send t.net a.node ~iface (Message.crp_advert_packet ~src:a.addr ~bsr:bsr_addr c))
      a.role.crp_records);
  if elected_self then begin
    a.my_seq <- a.my_seq + 1;
    a.bsr_seq <- a.my_seq;
    a.bsr_deadline <- now +. t.cfg.bsr_holdtime;
    let crps =
      sorted_recs a.table
      |> List.filter (fun (_, (r : rp_rec)) -> r.deadline > now)
      |> List.map (fun ((rp, coverage), (r : rp_rec)) ->
             Message.crp ~priority:r.priority ~holdtime:r.holdtime ~coverage rp)
    in
    (* The BSR's own view is its table. *)
    List.iter
      (fun (c : Message.crp) ->
        install_rec a.view (c.Message.crp_addr, c.Message.coverage)
          ~priority:c.Message.priority ~holdtime:c.Message.crp_holdtime ~now)
      crps;
    Counters.(incr t.counters ~node:a.node Bootstraps_sent);
    flood_bootstrap t a
      ~bsr:a.addr
      ~bsr_priority:(match a.bsr with Some (_, p) -> p | None -> 0)
      ~seq:a.my_seq ~crps ~except:None
  end;
  check_mappings t a ~now

let handle_packet t a ~iface pkt =
  match pkt.Packet.payload with
  | Message.Bootstrap { bsr; bsr_priority; seq; crps } ->
    handle_bootstrap t a ~iface ~bsr ~bsr_priority ~seq ~crps
  | Message.Crp_advert c -> (
    match pkt.Packet.dst with
    | Packet.Unicast dst when Addr.equal dst a.addr -> handle_crp_advert t a c
    | Packet.Unicast dst when t.forward_unicast -> (
      (* Standalone deployments (no PIM router on the node) forward
         transit adverts themselves. *)
      match Rib.next_hop a.rib dst with
      | Some (ifc, _) -> Net.send t.net a.node ~iface:ifc pkt
      | None -> ())
    | _ -> ())
  | _ -> ()

let restart t node =
  let a = t.agents.(node) in
  a.bsr <- None;
  a.bsr_seq <- 0;
  a.bsr_deadline <- 0.;
  a.my_seq <- 0;
  Hashtbl.reset a.view;
  Hashtbl.reset a.table;
  Hashtbl.reset a.cache;
  Hashtbl.reset a.last;
  (* The watch list is soft state too: a rebooted router forgets which
     groups it was asked about until the next lookup re-registers them
     (mapping-change announcements resume from there). *)
  Hashtbl.reset a.watch

let deploy ?(config = default) ?trace ?(forward_unicast = false) ~net ~ribs ~roles () =
  let eng = Net.engine net in
  let topo = Net.topo net in
  let n = Topology.n_nodes topo in
  if Array.length roles <> n then invalid_arg "Bsr.deploy: roles length";
  let agents =
    Array.init n (fun node ->
        {
          node;
          addr = Addr.router node;
          rib = ribs node;
          role = roles.(node);
          bsr = None;
          bsr_seq = 0;
          bsr_deadline = 0.;
          my_seq = 0;
          view = Hashtbl.create 8;
          table = Hashtbl.create 8;
          watch = Hashtbl.create 4;
          cache = Hashtbl.create 4;
          last = Hashtbl.create 4;
        })
  in
  let t = { net; eng; cfg = config; trace; forward_unicast; agents; counters = Net.counters net } in
  Array.iter
    (fun a ->
      Net.set_handler net a.node (fun ~iface pkt -> handle_packet t a ~iface pkt);
      let frac = float_of_int (a.node mod 16) /. 16. in
      ignore
        (Engine.every eng
           ~start:(config.bootstrap_period *. (0.1 +. (0.5 *. frac)))
           ~interval:config.bootstrap_period
           (tick t a)))
    agents;
  t
