module Net = Pim_sim.Net
module Engine = Pim_sim.Engine
module Topology = Pim_graph.Topology
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr
module Group = Pim_net.Group

type config = {
  query_interval : float;
  max_resp : float;
  robustness : int;
}

let default_config = { query_interval = 60.; max_resp = 10.; robustness = 2 }

type t = {
  net : Net.t;
  eng : Engine.t;
  node : Topology.node;
  cfg : config;
  members : (Topology.iface * Group.t, float) Hashtbl.t;  (* expiry *)
  rp_hints : (Group.t, Addr.t list) Hashtbl.t;
  mutable hint_changes : int;  (* times a report changed a group's hint *)
  join_cbs : (iface:Topology.iface -> Group.t -> unit) Pim_util.Vec.t;
  leave_cbs : (iface:Topology.iface -> Group.t -> unit) Pim_util.Vec.t;
}

let hold_time cfg = (float_of_int cfg.robustness *. cfg.query_interval) +. cfg.max_resp

(* Stand-in for the IGMPv2 querier election: the live router with the
   smallest id on the subnet queries. *)
let is_querier t lid =
  let others = Topology.others_on_link (Net.topo t.net) lid t.node in
  List.for_all (fun v -> (not (Net.node_up t.net v)) || v > t.node) others

let send_queries t =
  Array.iter
    (fun (iface, lid) ->
      let link = Topology.link (Net.topo t.net) lid in
      if link.Topology.is_lan && is_querier t lid then begin
        let pkt =
          Message.query_packet ~src:(Addr.router t.node) ~max_resp:t.cfg.max_resp ()
        in
        Net.send t.net t.node ~iface pkt
      end)
    (Topology.ifaces (Net.topo t.net) t.node)

let compare_membership (i, g) (i', g') =
  match Int.compare i i' with 0 -> Group.compare g g' | c -> c

let sweep t =
  let now = Engine.now t.eng in
  let dead =
    Hashtbl.fold (fun k exp acc -> if exp < now then k :: acc else acc) t.members []
    |> List.sort compare_membership
  in
  List.iter
    (fun ((iface, g) as k) ->
      Hashtbl.remove t.members k;
      Pim_util.Vec.iter (fun f -> f ~iface g) t.leave_cbs)
    dead

let rp_hint t g = Option.value (Hashtbl.find_opt t.rp_hints g) ~default:[]

let hint_changes t = t.hint_changes

let handle_report t ~iface (r : Message.report) =
  let g = r.Message.group in
  let fresh = not (Hashtbl.mem t.members (iface, g)) in
  Hashtbl.replace t.members (iface, g) (Engine.now t.eng +. hold_time t.cfg);
  if r.Message.rps <> [] && not (List.equal Addr.equal r.Message.rps (rp_hint t g)) then begin
    Hashtbl.replace t.rp_hints g r.Message.rps;
    t.hint_changes <- t.hint_changes + 1
  end;
  if fresh then Pim_util.Vec.iter (fun f -> f ~iface g) t.join_cbs

let handle_packet t ~iface pkt =
  match pkt.Packet.payload with
  | Message.Report r ->
    handle_report t ~iface r;
    true
  | Message.Query _ -> true  (* other querier's query: nothing to do *)
  | _ -> false

let create ?(config = default_config) net ~node =
  let t =
    {
      net;
      eng = Net.engine net;
      node;
      cfg = config;
      members = Hashtbl.create 16;
      rp_hints = Hashtbl.create 8;
      hint_changes = 0;
      join_cbs = Pim_util.Vec.create ();
      leave_cbs = Pim_util.Vec.create ();
    }
  in
  (* First query almost immediately so simulations converge fast; stagger
     by node id to keep runs deterministic but not synchronized. *)
  let start = 0.1 +. (0.001 *. float_of_int node) in
  ignore (Engine.every t.eng ~start ~interval:config.query_interval (fun () -> send_queries t));
  ignore
    (Engine.every t.eng ~start:config.query_interval ~interval:config.query_interval (fun () ->
         sweep t));
  t

let has_member t g = Hashtbl.fold (fun (_, g') _ acc -> acc || Group.equal g g') t.members false

let member_on t ~iface g = Hashtbl.mem t.members (iface, g)

let member_ifaces t g =
  Hashtbl.fold (fun (i, g') _ acc -> if Group.equal g g' then i :: acc else acc) t.members []
  |> List.sort_uniq Int.compare

let groups t =
  Hashtbl.fold (fun (_, g) _ acc -> g :: acc) t.members []
  |> List.sort_uniq Group.compare

let on_join t f = Pim_util.Vec.push t.join_cbs f

let on_leave t f = Pim_util.Vec.push t.leave_cbs f
