module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Topology = Pim_graph.Topology
module Fwd = Pim_mcast.Fwd

type protocol = Pim_sm | Pim_dm | Dvmrp | Cbt | Mospf

let all = [ Pim_sm; Pim_dm; Dvmrp; Cbt; Mospf ]

let to_string = function
  | Pim_sm -> "PIM-SM"
  | Pim_dm -> "PIM-DM"
  | Dvmrp -> "DVMRP"
  | Cbt -> "CBT"
  | Mospf -> "MOSPF"

let of_string s =
  match String.lowercase_ascii s with
  | "pim-sm" | "pimsm" | "sm" -> Some Pim_sm
  | "pim-dm" | "pimdm" | "dm" -> Some Pim_dm
  | "dvmrp" -> Some Dvmrp
  | "cbt" -> Some Cbt
  | "mospf" -> Some Mospf
  | _ -> None

type t = {
  protocol : protocol;
  join : Topology.node -> unit;
  leave : Topology.node -> unit;
  on_data : Topology.node -> (Pim_net.Packet.t -> unit) -> unit;
  send_from : Topology.node -> unit;
  entries : unit -> int;
  restart : Topology.node -> unit;
  state_checks : (string * (unit -> string list)) list;
  mroute : Topology.node -> string list;
  max_copies : int;
  residual_floor : int;
  spt_switches : unit -> int;
}

type config = { sm : Pim_core.Config.t; lsa_refresh : float option }

let fast = { sm = Pim_core.Config.fast; lsa_refresh = Some 5. }

(* Settle bounds in virtual seconds under each protocol's fast config:
   how long after a perturbation (or a membership change) the deployment
   needs before a probe window is a fair test.  PIM-SM: a few jp_periods,
   since crashed transit routers are rebuilt by their downstream
   neighbors' periodic refresh, one hop per period worst case; under an
   election a restarted RP re-enters the mapping only after its advert
   reaches the BSR and a bootstrap flood spreads it, and routers notice
   stale shared trees via rp_timeout.  Dense: a stale-iif entry heals only
   after the prune/grow-back cycle lets it expire.  MOSPF: a restarted
   router relearns the domain's LSAs within one refresh.  Constants, so
   the explorer can plan without instantiating a deployment. *)
let settle_hint ?(rp_election = false) ?(hops = 8) protocol =
  match protocol with
  | Pim_sm ->
    let c = Pim_core.Config.fast in
    (5. *. c.Pim_core.Config.jp_period)
    +.
    if rp_election then
      Pim_core.Bsr.failover_budget Pim_core.Bsr.fast +. c.Pim_core.Config.rp_timeout
    else 0.
  | Pim_dm | Dvmrp ->
    let c = Pim_dense.Router.fast_config in
    c.Pim_dense.Router.prune_timeout +. c.Pim_dense.Router.entry_linger +. 5.
  | Cbt ->
    (* CBT is explicit-ack hard state: after a core restart the orphaned
       subtree only discovers the severed parent hop by hop, each level
       waiting out its own parent_timeout before flushing (the deliberate
       slow-heal contrast with PIM's soft state, paper footnote 4).  The
       bound therefore scales with tree depth: [hops] levels of teardown
       plus one rejoin/echo cycle. *)
    let c = Pim_cbt.Router.fast_config in
    (float_of_int hops *. c.Pim_cbt.Router.parent_timeout)
    +. c.Pim_cbt.Router.rejoin_delay
    +. (3. *. c.Pim_cbt.Router.echo_interval)
  | Mospf -> 15.

(* Soft state tears down serially, so each protocol needs its own wait
   after every member left before leftover state counts as orphaned. *)
let drain_hint ~topo ~source = function
  | Pim_sm ->
    (* The RP's entry lingers past the last data, then each hop toward
       the source keeps refreshing its upstream until its own oif times
       out — one oif holdtime per hop, bounded by the source's
       eccentricity (links cost the same both ways). *)
    let tree = Pim_graph.Spt.single_source topo source in
    let ecc =
      List.init (Topology.n_nodes topo) (Pim_graph.Spt.distance tree)
      |> List.fold_left (fun acc d -> Option.fold ~none:acc ~some:(max acc) d) 0
    in
    Pim_core.Config.(
      fast.entry_linger +. (float_of_int (ecc + 2) *. fast.oif_holdtime)
      +. (3. *. fast.sweep_interval))
  | Pim_dm | Dvmrp ->
    Pim_dense.Router.(fast_config.entry_linger +. (3. *. fast_config.sweep_interval))
  | Cbt -> Pim_cbt.Router.(fast_config.child_timeout +. (4. *. fast_config.echo_interval))
  | Mospf -> 10.

(* One group's RPs by strategy name, off the endpoints; "bsr" is the
   centered candidate pair an election chooses between. *)
let place_rps ~topo ~group ~endpoints ~seed name =
  let spec =
    match name with "bsr" -> Some (Pim_core.Placement.Centered 2) | s -> Pim_core.Placement.named s
  in
  Option.map
    (fun spec ->
      Pim_core.Placement.compute ~topo ~groups:[ (group, endpoints) ] ~forbidden:endpoints ~seed
        spec
      |> List.concat_map (fun (_, rps) -> List.filter_map Addr.router_index rps))
    spec

(* {1 Shared state checks} *)

let entry_target (e : Fwd.entry) =
  match e.Fwd.source with Some s when not e.Fwd.rp_bit -> Some s | _ -> e.Fwd.rp

(* PIM structural invariants phrased over any deployment exposing per-node
   FIBs: iif agrees with the RPF interface toward the entry's target, and
   every live non-local oif feeds matching downstream state.  Used by both
   the chaos harness and the scenario DSL. *)
let pim_state_checks ~net ~rib ~fib =
  let topo = Net.topo net in
  let eng = Net.engine net in
  let n = Topology.n_nodes topo in
  let iif_check () =
    let problems = ref [] in
    for u = 0 to n - 1 do
      if Net.node_up net u then
        List.iter
          (fun (e : Fwd.entry) ->
            match entry_target e with
            | None -> ()
            | Some target ->
              let expected = Pim_routing.Rib.rpf_iface (rib u) target in
              if e.Fwd.iif <> expected then
                problems :=
                  Format.asprintf "node %d %a: iif disagrees with RPF toward %s (want %s)" u
                    Fwd.pp_entry e (Addr.to_string target)
                    (match expected with None -> "-" | Some i -> string_of_int i)
                  :: !problems)
          (Fwd.entries (fib u))
    done;
    !problems
  in
  let stale_oif_check () =
    let problems = ref [] in
    let nw = Engine.now eng in
    for u = 0 to n - 1 do
      if Net.node_up net u then
        List.iter
          (fun (e : Fwd.entry) ->
            if Fwd.is_star e || not e.Fwd.rp_bit then
              List.iter
                (fun (o : Fwd.oif) ->
                  if (not o.Fwd.local) && o.Fwd.iface >= 0 && o.Fwd.expires > nw then begin
                    let link = Topology.link_of_iface topo u o.Fwd.iface in
                    if Net.link_up net link.Topology.id then begin
                      let fed =
                        Topology.others_on_link topo link.Topology.id u
                        |> List.exists (fun v ->
                               Net.node_up net v
                               &&
                               let viface = Topology.iface_of_link topo v link.Topology.id in
                               let vfib = fib v in
                               let candidates =
                                 match e.Fwd.source with
                                 | None -> [ Fwd.find_star vfib e.Fwd.group ]
                                 | Some s ->
                                   [ Fwd.find_sg vfib e.Fwd.group s; Fwd.find_star vfib e.Fwd.group ]
                               in
                               List.exists
                                 (function
                                   | Some (de : Fwd.entry) -> de.Fwd.iif = Some viface
                                   | None -> false)
                                 candidates)
                      in
                      if not fed then
                        problems :=
                          Format.asprintf "node %d %a: oif %d feeds no downstream state on link %d"
                            u Fwd.pp_entry e o.Fwd.iface link.Topology.id
                          :: !problems
                    end
                  end)
                e.Fwd.oifs)
          (Fwd.entries (fib u))
    done;
    !problems
  in
  [ ("iif-consistency", iif_check); ("stale-oif", stale_oif_check) ]

(* {1 Deployments}

   One deployment per protocol, one [t] view per group; a single group is
   a list of one.  Workloads drive dozens of Zipf-popular groups over
   thousands of routers, where a deployment per group would multiply
   every router's timer load by the group count.  Views share entries/
   restart/state_checks/spt_switches; join/leave/send_from/mroute act per
   group, and on_data callbacks fire only for the view's group. *)

(* Eta-expanded: a partial [asprintf] builds a formatter even for a router with no state. *)
let fwd_mroute fib u = List.map (fun e -> Format.asprintf "%a" Fwd.pp_entry e) (Fwd.entries (fib u))

let rp_nodes_for ~placement ~protocol group =
  match List.find_opt (fun (g, _) -> Group.equal g group) placement with
  | Some (_, (_ :: _ as nodes)) -> nodes
  | Some (_, []) ->
    (* The texts a .scn run without an rp directive has always reported. *)
    invalid_arg
      (match protocol with
      | Cbt -> "Stack.create: CBT needs an rp/core node"
      | _ -> Printf.sprintf "Stack.create: %s needs at least one RP" (to_string protocol))
  | None ->
    invalid_arg
      (Printf.sprintf "Stack.create_many: %s needs an RP/core placement for group %s"
         (to_string protocol) (Group.to_string group))

module Group_tbl = Hashtbl.Make (Group)

(* Local delivery by group for a deployment whose routers take callbacks
   through [register].  A router gets one dispatcher, registered on its
   first [on_data]; it reads the packet's group once and runs only that
   group's callbacks, in registration order.  Every protocol hands
   decapsulated multicast data to its local callbacks, so the group is
   readable off the packet; anything unreadable is data for no view. *)
let local_dispatch net register =
  let by_node = Array.make (Topology.n_nodes (Net.topo net)) None in
  fun node group cb ->
    let by_group =
      match by_node.(node) with
      | Some tbl -> tbl
      | None ->
        let tbl = Group_tbl.create 4 in
        by_node.(node) <- Some tbl;
        register node (fun pkt ->
            match (pkt.Pim_net.Packet.payload, pkt.Pim_net.Packet.dst) with
            | Pim_mcast.Mdata.Data _, Pim_net.Packet.Multicast g -> (
              match Group_tbl.find tbl g with
              | cbs ->
                for i = 0 to Pim_util.Vec.length cbs - 1 do
                  let cb = Pim_util.Vec.get cbs i in
                  cb pkt
                done
              | exception Not_found -> ())
            | _ -> ());
        tbl
    in
    match Group_tbl.find_opt by_group group with
    | Some cbs -> Pim_util.Vec.push cbs cb
    | None ->
      let cbs = Pim_util.Vec.create () in
      Pim_util.Vec.push cbs cb;
      Group_tbl.replace by_group group cbs

let pim_sm_many ~spt_switches ~rp_election ~cbsr_forbidden ~config ?trace ~placement ~groups
    net =
  let rps_of g = rp_nodes_for ~placement ~protocol:Pim_sm g in
  let addr_placement = List.map (fun g -> (g, List.map Addr.router (rps_of g))) groups in
  let static = Pim_routing.Static.create net in
  let ribs = Pim_routing.Static.rib static in
  let bsr, rp_set =
    if rp_election then begin
      (* Every distinct RP node becomes a C-RP advertising exactly the
         groups it is placed for (Placement.roles groups the placement by
         node); the first two routers that are neither RPs nor in
         [cbsr_forbidden] become C-BSRs.  The whole group-to-RP mapping
         then emerges from the live election — the multi-RP sharding path
         the BSR hash mapping implements. *)
      let n_nodes = Topology.n_nodes (Net.topo net) in
      let all_rps = List.sort_uniq Int.compare (List.concat_map rps_of groups) in
      let cbsrs =
        List.init n_nodes Fun.id
        |> List.filter (fun u -> not (List.mem u all_rps || List.mem u cbsr_forbidden))
        |> List.filteri (fun i _ -> i < 2)
        |> List.mapi (fun i u -> (u, 2 - i))
      in
      let roles = Pim_core.Placement.roles addr_placement ~n_nodes ~cbsrs in
      let b = Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~net ~ribs ~roles () in
      (Some b, Pim_core.Rp_set.empty)
    end
    else (None, Pim_core.Rp_set.of_list addr_placement)
  in
  let d = Pim_core.Deployment.create ~config ?bsr ?trace ~net ~ribs ~rp_set () in
  let router u = Pim_core.Deployment.router d u in
  let fib u = Pim_core.Router.fib (router u) in
  let checks = pim_state_checks ~net ~rib:ribs ~fib in
  let on_data = local_dispatch net (fun u f -> Pim_core.Router.on_local_data (router u) f) in
  let view group =
    {
      protocol = Pim_sm;
      join = (fun m -> Pim_core.Router.join_local (router m) group);
      leave = (fun m -> Pim_core.Router.leave_local (router m) group);
      on_data = (fun m cb -> on_data m group cb);
      send_from = (fun u -> Pim_core.Router.send_local_data (router u) ~group ());
      entries = (fun () -> Pim_core.Deployment.total_entries d);
      restart =
        (fun u ->
          Pim_core.Router.restart (router u);
          Option.iter (fun b -> Pim_core.Bsr.restart b u) bsr);
      state_checks = checks;
      mroute = fwd_mroute fib;
      max_copies = 1;
      residual_floor = 0;
      spt_switches;
    }
  in
  List.map (fun g -> (g, view g)) groups

let dense_many ~spt_switches ~mode ?trace ~groups net =
  let config = { Pim_dense.Router.fast_config with mode; graft = true } in
  let d = Pim_dense.Router.Deployment.create_static ~config ?trace net in
  let router u = Pim_dense.Router.Deployment.router d u in
  let protocol = match mode with Pim_dense.Router.Pim_dm -> Pim_dm | Pim_dense.Router.Dvmrp -> Dvmrp in
  let on_data = local_dispatch net (fun u f -> Pim_dense.Router.on_local_data (router u) f) in
  let view group =
    {
      protocol;
      join = (fun m -> Pim_dense.Router.join_local (router m) group);
      leave = (fun m -> Pim_dense.Router.leave_local (router m) group);
      on_data = (fun m cb -> on_data m group cb);
      send_from = (fun u -> Pim_dense.Router.send_local_data (router u) ~group ());
      entries = (fun () -> Pim_dense.Router.Deployment.total_entries d);
      restart = (fun u -> Pim_dense.Router.restart (router u));
      state_checks = [];
      mroute = (fun u -> fwd_mroute (fun v -> Pim_dense.Router.fib (router v)) u);
      (* Broadcast-and-prune legitimately puts one copy per link direction
         on the wire (the flood, then the re-flood after grow-back). *)
      max_copies = 2;
      residual_floor = 0;
      spt_switches;
    }
  in
  List.map (fun g -> (g, view g)) groups

let cbt_many ~spt_switches ?trace ~placement ~groups net =
  let core_node g = List.hd (rp_nodes_for ~placement ~protocol:Cbt g) in
  (* Force the lookup for every group up front so a missing placement
     raises at construction, not mid-run. *)
  let cores = List.map (fun g -> (g, core_node g)) groups in
  let config = Pim_cbt.Router.fast_config in
  let core_of g =
    List.find_opt (fun (g', _) -> Group.equal g g') cores
    |> Option.map (fun (_, core) -> Addr.router core)
  in
  let d = Pim_cbt.Router.Deployment.create_static ~config ?trace net ~core_of in
  let router u = Pim_cbt.Router.Deployment.router d u in
  let on_data = local_dispatch net (fun u f -> Pim_cbt.Router.on_local_data (router u) f) in
  let view group =
    {
      protocol = Cbt;
      join = (fun m -> Pim_cbt.Router.join_local (router m) group);
      leave = (fun m -> Pim_cbt.Router.leave_local (router m) group);
      on_data = (fun m cb -> on_data m group cb);
      send_from = (fun u -> Pim_cbt.Router.send_local_data (router u) ~group ());
      entries = (fun () -> Pim_cbt.Router.Deployment.total_entries d);
      restart = (fun u -> Pim_cbt.Router.restart (router u));
      state_checks = [];
      mroute =
        (fun u ->
          let r = router u in
          if Pim_cbt.Router.on_tree r group then
            [
              Printf.sprintf "%s ifaces={%s}" (Group.to_string group)
                (Pim_cbt.Router.tree_ifaces r group
                |> List.sort Int.compare |> List.map string_of_int |> String.concat ",");
            ]
          else []);
      max_copies = 1;
      (* The core never tears down its own entry. *)
      residual_floor = 1;
      spt_switches;
    }
  in
  List.map (fun g -> (g, view g)) groups

let mospf_many ~spt_switches ?lsa_refresh ?trace ~groups net =
  let d = Pim_mospf.Router.Deployment.create ?trace ?lsa_refresh net in
  let router u = Pim_mospf.Router.Deployment.router d u in
  let n = Topology.n_nodes (Net.topo net) in
  let on_data = local_dispatch net (fun u f -> Pim_mospf.Router.on_local_data (router u) f) in
  let knows u m g = Pim_mospf.Router.knows_member (router u) m g in
  (* MOSPF floods membership, so every live router must know every live
     member — the whole premise of its design.  A router's own state
     says whether it is a member. *)
  let membership_sync () =
    let live = List.filter (Net.node_up net) (List.init n Fun.id) in
    List.concat_map
      (fun g ->
        let members = List.filter (fun m -> knows m m g) live in
        List.concat_map
          (fun u ->
            List.filter (fun m -> not (knows u m g)) members
            |> List.map (fun m ->
                   Printf.sprintf "router %d does not know member %d of %s" u m
                     (Group.to_string g)))
          live)
      groups
  in
  let view group =
    {
      protocol = Mospf;
      join = (fun m -> Pim_mospf.Router.join_local (router m) group);
      leave = (fun m -> Pim_mospf.Router.leave_local (router m) group);
      on_data = (fun m cb -> on_data m group cb);
      send_from = (fun u -> Pim_mospf.Router.send_local_data (router u) ~group ());
      entries = (fun () -> Pim_mospf.Router.Deployment.total_membership_entries d);
      restart = (fun u -> Pim_mospf.Router.restart (router u));
      state_checks = [ ("membership-sync", membership_sync) ];
      mroute =
        (fun u ->
          let known = List.filter (fun m -> knows u m group) (List.init n Fun.id) in
          match known with
          | [] -> []
          | ms ->
            [
              Printf.sprintf "%s members={%s}" (Group.to_string group)
                (String.concat "," (List.map string_of_int ms));
            ]);
      max_copies = 1;
      residual_floor = 0;
      spt_switches;
    }
  in
  List.map (fun g -> (g, view g)) groups

let create_many ?(placement = []) ?(rp_election = false) ?(cbsr_forbidden = []) ?(config = fast)
    ?trace ~groups ~net protocol =
  (* Only PIM-SM routers count switches; elsewhere the total stays 0. *)
  let spt_switches () = Pim_sim.Counters.total (Net.counters net) Spt_switches in
  match protocol with
  | Pim_sm ->
    pim_sm_many ~spt_switches ~rp_election ~cbsr_forbidden ~config:config.sm ?trace ~placement
      ~groups net
  | Pim_dm -> dense_many ~spt_switches ~mode:Pim_dense.Router.Pim_dm ?trace ~groups net
  | Dvmrp -> dense_many ~spt_switches ~mode:Pim_dense.Router.Dvmrp ?trace ~groups net
  | Cbt -> cbt_many ~spt_switches ?trace ~placement ~groups net
  | Mospf -> mospf_many ~spt_switches ?lsa_refresh:config.lsa_refresh ?trace ~groups net

(* {1 State digest} *)

(* Canonical rendering of the global protocol state: per live node its
   timer-free mroute lines, plus the live-topology bitmap and member set.
   Two runs reaching the same digest are (for exploration purposes) in
   the same state — the dedup key `pimsim explore` prunes on, and the
   comparison key the future differential-verification work diffs on.
   Digest.string is MD5 from the stdlib: stable across runs and builds,
   no new dependency. *)
let digest t ~net ~members =
  let topo = Net.topo net in
  let n = Topology.n_nodes topo in
  let buf = Buffer.create 1024 in
  for u = 0 to n - 1 do
    if Net.node_up net u then begin
      Buffer.add_string buf (Printf.sprintf "node %d\n" u);
      List.iter
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        (t.mroute u)
    end
    else Buffer.add_string buf (Printf.sprintf "node %d down\n" u)
  done;
  for lid = 0 to Topology.n_links topo - 1 do
    Buffer.add_char buf (if Net.link_up net lid then '1' else '0')
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (String.concat "," (List.map string_of_int (List.sort_uniq Int.compare members)));
  Digest.to_hex (Digest.string (Buffer.contents buf))
