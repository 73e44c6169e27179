module Topology = Pim_graph.Topology
module Net = Pim_sim.Net
module Engine = Pim_sim.Engine
module Packet = Pim_net.Packet
module Addr = Pim_net.Addr

type config = {
  period : float;
  timeout : float;
  infinity_metric : int;
  triggered_delay : float;
}

let default_config =
  { period = 30.; timeout = 180.; infinity_metric = 64; triggered_delay = 1. }

type Packet.payload +=
  | Dv_update of { origin : Topology.node; entries : (Topology.node * int) list }

let () =
  Packet.register_printer (function
    | Dv_update { origin; entries } ->
      Some (Printf.sprintf "dv-update from %d (%d entries)" origin (List.length entries))
    | _ -> None)

type route = {
  mutable metric : int;
  mutable via_iface : Topology.iface;  (* -1 for the self route *)
  mutable next : Topology.node;
  mutable expiry : float;
}

type state = {
  u : Topology.node;
  table : (Topology.node, route) Hashtbl.t;
  subs : (unit -> unit) Pim_util.Vec.t;
  mutable trigger_pending : bool;
}

type t = {
  net : Net.t;
  eng : Engine.t;
  cfg : config;
  states : state array;
  mutable sent : int;
}

let notify st = Pim_util.Vec.iter (fun f -> f ()) st.subs

let advertise t st =
  let topo = Net.topo t.net in
  Array.iter
    (fun (iface, _lid) ->
      let entries =
        Hashtbl.fold
          (fun dst r acc ->
            (* Split horizon with poison reverse. *)
            let m = if r.via_iface = iface then t.cfg.infinity_metric else r.metric in
            (dst, m) :: acc)
          st.table []
        |> List.sort (fun (d, _) (d', _) -> Int.compare d d')
      in
      let pkt =
        Packet.unicast ~src:(Addr.router st.u) ~dst:Addr.all_pim_routers
          ~size:(8 + (8 * List.length entries))
          (Dv_update { origin = st.u; entries })
      in
      t.sent <- t.sent + 1;
      Net.send t.net st.u ~iface pkt)
    (Topology.ifaces topo st.u)

let schedule_triggered t st =
  if not st.trigger_pending then begin
    st.trigger_pending <- true;
    ignore
      (Engine.schedule t.eng ~after:t.cfg.triggered_delay (fun () ->
           st.trigger_pending <- false;
           advertise t st))
  end

let handle_update t st ~iface ~origin entries =
  let topo = Net.topo t.net in
  let link = Topology.link_of_iface topo st.u iface in
  let cost = link.Topology.cost in
  let now = Engine.now t.eng in
  let changed = ref false in
  List.iter
    (fun (dst, m) ->
      if dst <> st.u then begin
        let candidate = min t.cfg.infinity_metric (m + cost) in
        match Hashtbl.find_opt st.table dst with
        | Some r when r.next = origin && r.via_iface = iface ->
          (* Update from the current next hop is authoritative. *)
          r.expiry <- now +. t.cfg.timeout;
          if candidate <> r.metric then begin
            r.metric <- candidate;
            changed := true
          end
        | Some r ->
          if candidate < r.metric then begin
            r.metric <- candidate;
            r.via_iface <- iface;
            r.next <- origin;
            r.expiry <- now +. t.cfg.timeout;
            changed := true
          end
        | None ->
          if candidate < t.cfg.infinity_metric then begin
            Hashtbl.replace st.table dst
              { metric = candidate; via_iface = iface; next = origin; expiry = now +. t.cfg.timeout };
            changed := true
          end
      end)
    entries;
  if !changed then begin
    notify st;
    schedule_triggered t st
  end

let sweep t st =
  let now = Engine.now t.eng in
  let changed = ref false in
  (* pimlint: allow D1, T1 — in-place metric poisoning, order-independent *)
  Hashtbl.iter
    (fun dst r ->
      if dst <> st.u && r.metric < t.cfg.infinity_metric && r.expiry < now then begin
        r.metric <- t.cfg.infinity_metric;
        changed := true
      end)
    st.table;
  if !changed then begin
    notify st;
    schedule_triggered t st
  end

let on_link_event t st lid =
  (* Poison every route through a flapped link; new routes will be learned
     from the next advertisements. *)
  let topo = Net.topo t.net in
  match Topology.iface_of_link_opt topo st.u lid with
  | None -> ()
  | Some iface ->
    let up = Net.link_up t.net lid in
    let changed = ref false in
    if not up then
      (* pimlint: allow D1, T1 — in-place metric poisoning; order-independent. *)
      Hashtbl.iter
        (fun dst r ->
          if dst <> st.u && r.via_iface = iface && r.metric < t.cfg.infinity_metric then begin
            r.metric <- t.cfg.infinity_metric;
            changed := true
          end)
        st.table;
    if !changed then notify st;
    (* Either direction: advertise promptly so neighbors relearn. *)
    schedule_triggered t st

let create ?(config = default_config) net =
  let topo = Net.topo net in
  let eng = Net.engine net in
  let n = Topology.n_nodes topo in
  let states =
    Array.init n (fun u ->
        let table = Hashtbl.create 16 in
        Hashtbl.replace table u { metric = 0; via_iface = -1; next = u; expiry = infinity };
        { u; table; subs = Pim_util.Vec.create (); trigger_pending = false })
  in
  let t = { net; eng; cfg = config; states; sent = 0 } in
  Array.iter
    (fun st ->
      Net.set_handler net st.u (fun ~iface pkt ->
          match pkt.Packet.payload with
          | Dv_update { origin; entries } -> handle_update t st ~iface ~origin entries
          | _ -> ());
      (* Stagger the periodic advertisements across the first period so all
         routers do not fire simultaneously. *)
      let start = config.period *. (0.1 +. (0.8 *. float_of_int st.u /. float_of_int n)) in
      ignore (Engine.every eng ~start ~interval:config.period (fun () -> advertise t st));
      ignore (Engine.every eng ~start:config.period ~interval:config.period (fun () -> sweep t st)))
    states;
  Net.on_link_change net (fun lid _up -> Array.iter (fun st -> on_link_event t st lid) states);
  t

let metric t u d =
  match Hashtbl.find_opt t.states.(u).table d with
  | Some r when r.metric < t.cfg.infinity_metric -> Some r.metric
  | _ -> None

let rib t u =
  let st = t.states.(u) in
  let route addr =
    let d = Pim_net.Addr.owner_index addr in
    if d < 0 || d = u then Topology.no_iface
    else
      match Hashtbl.find_opt st.table d with
      | Some r when r.metric < t.cfg.infinity_metric -> Rib.pack_route ~iface:r.via_iface ~node:r.next
      | _ -> Topology.no_iface
  in
  let distance addr =
    match Rib.resolve addr with None -> None | Some d -> metric t u d
  in
  let subscribe f = Pim_util.Vec.push st.subs f in
  { Rib.node = u; route; distance; subscribe }

let converged t ~against =
  let n = Array.length t.states in
  let ok = ref true in
  for u = 0 to n - 1 do
    for d = 0 to n - 1 do
      let expected = against.(u).(d) in
      let actual = metric t u d in
      let matches =
        if expected = max_int || expected >= t.cfg.infinity_metric then actual = None
        else actual = Some expected
      in
      if not matches then ok := false
    done
  done;
  !ok

let message_count t = t.sent
