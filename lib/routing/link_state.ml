module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Net = Pim_sim.Net
module Engine = Pim_sim.Engine
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr

type config = {
  refresh_period : float;
  spf_delay : float;
}

let default_config = { refresh_period = 120.; spf_delay = 0.5 }

type lsa = {
  origin : Topology.node;
  seq : int;
  adj : (Topology.node * int * Topology.link_id) list;  (* neighbor, cost, link *)
}

type Packet.payload += Lsa_flood of lsa

let () =
  Packet.register_printer (function
    | Lsa_flood l ->
      Some (Printf.sprintf "lsa origin=%d seq=%d (%d adj)" l.origin l.seq (List.length l.adj))
    | _ -> None)

type state = {
  u : Topology.node;
  lsdb : (Topology.node, lsa) Hashtbl.t;
  mutable own_seq : int;
  mutable dist : int array;
  mutable hop_node : int array;  (* -1 = no route *)
  mutable hop_iface : int array;
  mutable spf_pending : bool;
  subs : (unit -> unit) Pim_util.Vec.t;
}

type t = {
  net : Net.t;
  eng : Engine.t;
  cfg : config;
  states : state array;
  mutable lsa_sent : int;
  mutable spf_count : int;
}

(* Stand-in for a hello protocol: adjacency liveness is read from the
   network oracle.  A production implementation would time out silent
   neighbors instead; the flooding and SPF machinery is unaffected. *)
let live_adjacencies t u =
  let topo = Net.topo t.net in
  Array.to_list (Topology.ifaces topo u)
  |> List.concat_map (fun (_, lid) ->
         if Net.link_up t.net lid then
           let l = Topology.link topo lid in
           Topology.others_on_link topo lid u
           |> List.filter (fun v -> Net.node_up t.net v)
           |> List.map (fun v -> (v, l.Topology.cost, lid))
         else [])

let flood t st ~except lsa =
  let topo = Net.topo t.net in
  Array.iter
    (fun (iface, _) ->
      if Some iface <> except then begin
        let pkt =
          Packet.unicast ~src:(Addr.router st.u) ~dst:Addr.all_pim_routers
            ~size:(12 + (12 * List.length lsa.adj))
            (Lsa_flood lsa)
        in
        t.lsa_sent <- t.lsa_sent + 1;
        Net.send t.net st.u ~iface pkt
      end)
    (Topology.ifaces topo st.u)

(* Dijkstra over the router's own database: an adjacency counts when its
   origin advertises it and the neighbor advertises the origin back.  LSA
   costs are the topology's link costs, so the walk is the topology's,
   restricted to advertised adjacencies. *)
let run_spf t st =
  let topo = Net.topo t.net in
  t.spf_count <- t.spf_count + 1;
  let advertises o p =
    match Hashtbl.find_opt st.lsdb o with None -> false | Some lsa -> List.exists p lsa.adj
  in
  let usable o v lid =
    advertises o (fun (w, _, l) -> w = v && l = lid) && advertises v (fun (w, _, _) -> w = o)
  in
  let tree = Spt.single_source ~usable topo st.u in
  let hop_node, hop_iface = Spt.first_hop topo tree in
  st.dist <- tree.Spt.dist;
  st.hop_node <- hop_node;
  st.hop_iface <- hop_iface;
  Pim_util.Vec.iter (fun f -> f ()) st.subs

let schedule_spf t st =
  if not st.spf_pending then begin
    st.spf_pending <- true;
    ignore
      (Engine.schedule t.eng ~after:t.cfg.spf_delay (fun () ->
           st.spf_pending <- false;
           run_spf t st))
  end

let install t st ~iface lsa =
  let fresher =
    match Hashtbl.find_opt st.lsdb lsa.origin with
    | None -> true
    | Some old -> lsa.seq > old.seq
  in
  if fresher then begin
    Hashtbl.replace st.lsdb lsa.origin lsa;
    flood t st ~except:iface lsa;
    schedule_spf t st
  end

let originate t st =
  st.own_seq <- st.own_seq + 1;
  let lsa = { origin = st.u; seq = st.own_seq; adj = live_adjacencies t st.u } in
  Hashtbl.replace st.lsdb st.u lsa;
  flood t st ~except:None lsa;
  schedule_spf t st

let create ?(config = default_config) net =
  let topo = Net.topo net in
  let eng = Net.engine net in
  let n = Topology.n_nodes topo in
  let states =
    Array.init n (fun u ->
        {
          u;
          lsdb = Hashtbl.create 16;
          own_seq = 0;
          dist = Array.make n max_int;
          hop_node = Array.make n (-1);
          hop_iface = Array.make n (-1);
          spf_pending = false;
          subs = Pim_util.Vec.create ();
        })
  in
  let t = { net; eng; cfg = config; states; lsa_sent = 0; spf_count = 0 } in
  Array.iter
    (fun st ->
      Net.set_handler net st.u (fun ~iface pkt ->
          match pkt.Packet.payload with
          | Lsa_flood lsa -> install t st ~iface:(Some iface) lsa
          | _ -> ());
      let start = 0.01 +. (0.01 *. float_of_int st.u) in
      ignore (Engine.schedule eng ~after:start (fun () -> originate t st));
      ignore
        (Engine.every eng ~start:config.refresh_period ~interval:config.refresh_period
           (fun () -> originate t st)))
    states;
  Net.on_link_change net (fun lid _up ->
      let l = Topology.link topo lid in
      Array.iter
        (fun endpoint -> if Net.node_up net endpoint then originate t t.states.(endpoint))
        l.Topology.ends);
  t

let distance t u d = if t.states.(u).dist.(d) = max_int then None else Some t.states.(u).dist.(d)

let rib t u =
  let st = t.states.(u) in
  let route addr =
    let d = Pim_net.Addr.owner_index addr in
    if d < 0 || d = u then Topology.no_iface
    else
      let v = st.hop_node.(d) in
      if v < 0 then Topology.no_iface else Rib.pack_route ~iface:st.hop_iface.(d) ~node:v
  in
  let dist_fn addr =
    match Rib.resolve addr with None -> None | Some d -> distance t u d
  in
  let subscribe f = Pim_util.Vec.push st.subs f in
  { Rib.node = u; route; distance = dist_fn; subscribe }

let converged t ~against =
  let n = Array.length t.states in
  let ok = ref true in
  for u = 0 to n - 1 do
    for d = 0 to n - 1 do
      if u <> d then begin
        let expected = against.(u).(d) in
        let actual = distance t u d in
        let matches = if expected = max_int then actual = None else actual = Some expected in
        if not matches then ok := false
      end
    done
  done;
  !ok

let lsa_count t = t.lsa_sent

let spf_runs t = t.spf_count
