module Topology = Pim_graph.Topology
module Net = Pim_sim.Net
module Counters = Pim_sim.Counters

type t = {
  net : Net.t;
  routers : Router.t array;
}

let create ?config ?igmp_config ?trace ?bsr ~net ~ribs ~rp_set () =
  let n = Topology.n_nodes (Net.topo net) in
  let routers =
    Array.init n (fun u ->
        let rp_lookup = Option.map (fun b g -> Bsr.lookup b u g) bsr in
        Router.create ?config ?igmp_config ?trace ?rp_lookup ~net ~rib:(ribs u) ~rp_set u)
  in
  { net; routers }

let create_static ?config ?igmp_config ?trace net ~rp_set =
  let static = Pim_routing.Static.create net in
  create ?config ?igmp_config ?trace ~net ~ribs:(Pim_routing.Static.rib static) ~rp_set ()

let router t u = t.routers.(u)

let routers t = t.routers

let net t = t.net

let total_entries t =
  Array.fold_left (fun acc r -> acc + Pim_mcast.Fwd.count (Router.fib r)) 0 t.routers

let pp_shared_tree t g ppf () =
  let topo = Net.topo t.net in
  let n = Array.length t.routers in
  (* parent.(u) = the neighbor u's shared-tree iif points at, when u has a
     live shared-tree entry. *)
  let on_tree = Array.make n false in
  let parent = Array.make n None in
  Array.iter
    (fun r ->
      let u = Router.node r in
      match Pim_mcast.Fwd.find_star (Router.fib r) g with
      | None -> ()
      | Some e ->
        on_tree.(u) <- true;
        (match e.Pim_mcast.Fwd.iif with
        | None -> ()
        | Some iface -> (
          let link = Topology.link_of_iface topo u iface in
          match Topology.others_on_link topo link.Topology.id u with
          | [ p ] -> parent.(u) <- Some p
          | candidates -> (
            (* Multi-access: prefer an on-tree neighbor. *)
            match
              List.find_opt
                (fun p -> Pim_mcast.Fwd.find_star (Router.fib t.routers.(p)) g <> None)
                candidates
            with
            | Some p -> parent.(u) <- Some p
            | None -> parent.(u) <- (match candidates with p :: _ -> Some p | [] -> None))))
    )
    t.routers;
  let children u =
    List.filter (fun v -> on_tree.(v) && parent.(v) = Some u) (List.init n Fun.id)
  in
  let describe u =
    let r = t.routers.(u) in
    let tags = ref [] in
    if Router.is_rp_for r g then tags := "RP" :: !tags;
    if Router.has_local_members r g then tags := "members" :: !tags;
    if !tags = [] then Printf.sprintf "router %d" u
    else Printf.sprintf "router %d (%s)" u (String.concat ", " !tags)
  in
  let rec render u depth =
    Format.fprintf ppf "%s%s@." (String.make (2 * depth) ' ') (describe u);
    List.iter (fun v -> render v (depth + 1)) (children u)
  in
  let roots =
    List.filter
      (fun u ->
        on_tree.(u)
        && match parent.(u) with None -> true | Some p -> not on_tree.(p))
      (List.init n Fun.id)
  in
  if roots = [] then Format.fprintf ppf "(no shared tree for %s)@." (Pim_net.Group.to_string g)
  else begin
    Format.fprintf ppf "shared tree for %s:@." (Pim_net.Group.to_string g);
    List.iter (fun u -> render u 1) roots
  end

module Metrics = Pim_util.Metrics

(* The PIM-SM kinds exported, in export order: not [Unicast_forwarded] or
   [Rp_failovers], which were never exported — adding rows would change
   every metrics export and its pinned digest. *)
let exported =
  Counters.
    [ Jp_msgs_sent; Joins_sent; Prunes_sent; Registers_sent; Rp_reach_sent; Data_forwarded;
      Data_dropped_iif; Data_dup_suppressed; Data_dropped_no_state; Data_delivered_local;
      Spt_switches ]

let export_metrics t m =
  let counters = Net.counters t.net in
  Array.iter
    (fun r ->
      let labels = [ ("node", string_of_int (Router.node r)) ] in
      (* Export-as-set: an instrument already holding this router's
         previous snapshot is brought up to date, so exporting twice
         doesn't double-count. *)
      let set name v =
        let c = Metrics.counter m ~labels name in
        Metrics.incr ~by:(v - Metrics.counter_value c) c
      in
      List.iter
        (fun k -> set ("router_" ^ Counters.name k) (Counters.get counters ~node:(Router.node r) k))
        exported;
      let by_group = Hashtbl.create 4 in
      List.iter
        (fun e ->
          let g = Pim_net.Group.to_string e.Pim_mcast.Fwd.group in
          Hashtbl.replace by_group g (1 + Option.value ~default:0 (Hashtbl.find_opt by_group g)))
        (Pim_mcast.Fwd.entries (Router.fib r));
      Hashtbl.fold (fun g count acc -> (g, count) :: acc) by_group []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (g, count) ->
             Metrics.set
               (Metrics.gauge m ~labels:(("group", g) :: labels) "router_group_entries")
               (float_of_int count)))
    t.routers
