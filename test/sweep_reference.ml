(* The PIM-SM sweep as it was before it became due-driven: every tick
   visited every forwarding entry.  [Router.visit_every_entry] restores
   that walk on a router.  This module runs one seeded operation sequence
   on two identical networks, one whose routers sweep only the entries
   with something due and one whose routers visit every entry, and checks
   every half sweep interval that both hold the same forwarding state and
   timers and have sent the same frames (test_pim's [sweep] suite).

   The network is a 3x3 grid with a four-router LAN (3, 4, 5 and router
   9, which is on the LAN only), so joins and prunes meet override windows
   there, and a stub LAN on routers 0 and 9 for IGMP hosts.  Two groups
   each have two RPs, so crashing the first makes members fail over.  The
   operations: local and LAN-interface members joining and leaving, data
   (SPT switches, negative caches and their prune masks), link flaps (RPF
   changes), router crashes, recoveries and restarts, and, under IGMP RP
   hints, a changed hint: the RPs reordered or only one of them, which
   leaves members of the other stale, with no alternate while it is
   down. *)

module Topology = Pim_graph.Topology
module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Fwd = Pim_mcast.Fwd
module Router = Pim_core.Router
module Config = Pim_core.Config
module Deployment = Pim_core.Deployment
module Bsr = Pim_core.Bsr
module Host = Pim_igmp.Host

(* Where routers learn a group's RPs: static configuration, a BSR
   election, or the hints IGMP hosts put on their reports. *)
type mapping = Static | Elected | Hints

let mapping_name = function Static -> "static" | Elected -> "bsr" | Hints -> "igmp hints"

let n = 10

let lan_routers = [ 3; 4; 5; 9 ]

let groups = [ Group.of_index 1; Group.of_index 2 ]

(* Each group's RPs, primary first. *)
let rps = [ [ 4; 8 ]; [ 0; 6 ] ]

let topo, lan, stub =
  let b = Topology.builder n in
  for r = 0 to 2 do
    for c = 0 to 2 do
      let u = (3 * r) + c in
      if c < 2 then ignore (Topology.add_p2p b u (u + 1));
      if r < 2 then ignore (Topology.add_p2p b u (u + 3))
    done
  done;
  let lan = Topology.add_lan ~delay:0.001 b lan_routers in
  let stub = Topology.add_lan ~delay:0.001 b [ 0; 9 ] in
  (Topology.freeze b, lan, stub)

let config =
  { Config.fast with Config.sweep_interval = 0.5; rp_reach_period = 1.5; rp_timeout = 5. }

let igmp_config =
  { Pim_igmp.Router.default_config with Pim_igmp.Router.query_interval = 2.; max_resp = 0.5 }

type world = {
  eng : Engine.t;
  net : Net.t;
  dep : Deployment.t;
  bsr : Bsr.t option;
  hosts : Host.t array;  (* one per group, on the stub LAN *)
  hint : Addr.t list array;  (* the RPs each group's host advertises *)
  mutable sent : (float * int * Pim_net.Packet.t) list;  (* newest first *)
}

let world mapping ~every_entry =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let static = Pim_routing.Static.create net in
  let ribs = Pim_routing.Static.rib static in
  let bsr =
    match mapping with
    | Elected ->
      let roles =
        Array.init n (fun u ->
            {
              Bsr.cbsr_priority = (if u = 1 then Some 1 else if u = 7 then Some 2 else None);
              crp_records =
                List.concat
                  (List.map2
                     (fun g nodes ->
                       List.concat
                         (List.mapi (fun rank v -> if v = u then [ (10 - rank, [ g ]) ] else []) nodes))
                     groups rps);
            })
      in
      Some (Bsr.deploy ~config:Bsr.fast ~net ~ribs ~roles ())
    | Static | Hints -> None
  in
  let rp_set =
    match mapping with
    | Static ->
      Pim_core.Rp_set.of_list (List.map2 (fun g nodes -> (g, List.map Addr.router nodes)) groups rps)
    | Elected | Hints -> Pim_core.Rp_set.empty
  in
  let dep = Deployment.create ~config ~igmp_config ?bsr ~net ~ribs ~rp_set () in
  if every_entry then Array.iter Router.visit_every_entry (Deployment.routers dep);
  let hint = Array.of_list (List.map (List.map Addr.router) rps) in
  let hosts =
    Array.of_list
      (List.mapi
         (fun k _ ->
           Host.create net ~link:stub ~addr:(Addr.host ~router:0 (5 + k))
             ~rps_for:(fun g ->
               match (mapping, Group.index g) with Hints, Some i -> hint.(i - 1) | _ -> [])
             ())
         groups)
  in
  let w = { eng; net; dep; bsr; hosts; hint; sent = [] } in
  Net.on_send net (fun link pkt -> w.sent <- (Engine.now eng, link, pkt) :: w.sent);
  w

(* The RP lists a group's host may advertise: its RPs in order, reversed,
   and each alone. *)
let hints k =
  match List.map Addr.router (List.nth rps k) with
  | [ a; b ] -> [ [ a; b ]; [ b; a ]; [ b ]; [ a ] ]
  | l -> [ l ]

type op =
  | Join of int * int  (* router, group index *)
  | Leave of int * int
  | Join_lan of int * int
  | Leave_lan of int * int
  | Host_join of int
  | Host_leave of int
  | Send of int * int * int  (* router, group index, packets *)
  | Link of int * bool  (* link id, up *)
  | Crash of int
  | Recover of int
  | Restart of int
  | Hint of int * int  (* group index, which of [hints] its host advertises *)
  | Wait of float

let pp_op = function
  | Join (u, k) -> Printf.sprintf "join %d g%d" u k
  | Leave (u, k) -> Printf.sprintf "leave %d g%d" u k
  | Join_lan (u, k) -> Printf.sprintf "join-lan %d g%d" u k
  | Leave_lan (u, k) -> Printf.sprintf "leave-lan %d g%d" u k
  | Host_join k -> Printf.sprintf "host-join g%d" k
  | Host_leave k -> Printf.sprintf "host-leave g%d" k
  | Send (u, k, p) -> Printf.sprintf "send %d g%d x%d" u k p
  | Link (l, up) -> Printf.sprintf "link %d %s" l (if up then "up" else "down")
  | Crash u -> Printf.sprintf "crash %d" u
  | Recover u -> Printf.sprintf "recover %d" u
  | Restart u -> Printf.sprintf "restart %d" u
  | Hint (k, v) -> Printf.sprintf "hint g%d %d" k v
  | Wait d -> Printf.sprintf "wait %.2f" d

(* A random sequence of [len] operations, each followed by a wait. *)
let ops mapping prng ~len =
  let pick l = List.nth l (Prng.int prng (List.length l)) in
  let node () = Prng.int prng n and grp () = Prng.int prng (List.length groups) in
  let one () =
    match Prng.int prng 13 with
    | 0 | 1 -> Join (node (), grp ())
    | 2 -> Leave (node (), grp ())
    | 3 -> Join_lan (pick lan_routers, grp ())
    | 4 -> Leave_lan (pick lan_routers, grp ())
    | 5 -> if mapping = Hints then Host_join (grp ()) else Join (node (), grp ())
    | 6 -> if mapping = Hints then Host_leave (grp ()) else Leave (node (), grp ())
    | 7 | 8 -> Send (node (), grp (), 1 + Prng.int prng 4)
    | 9 -> Link (Prng.int prng (Topology.n_links topo - 1), Prng.bool prng)
    | 10 -> if Prng.bool prng then Crash (pick (List.concat rps)) else Recover (node ())
    | 11 -> Restart (node ())
    | _ -> if mapping = Hints then Hint (grp (), Prng.int prng 4) else Send (node (), grp (), 1)
  in
  List.concat (List.init len (fun _ -> [ one (); Wait (0.1 +. Prng.float prng 3.) ]))

let apply w = function
  | Join (u, k) -> Router.join_local (Deployment.router w.dep u) (List.nth groups k)
  | Leave (u, k) -> Router.leave_local (Deployment.router w.dep u) (List.nth groups k)
  | Join_lan (u, k) ->
    Router.join_on_iface (Deployment.router w.dep u) (List.nth groups k)
      ~iface:(Topology.iface_of_link topo u lan)
  | Leave_lan (u, k) ->
    Router.leave_on_iface (Deployment.router w.dep u) (List.nth groups k)
      ~iface:(Topology.iface_of_link topo u lan)
  | Host_join k -> Host.join w.hosts.(k) (List.nth groups k)
  | Host_leave k -> Host.leave w.hosts.(k) (List.nth groups k)
  | Send (u, k, p) ->
    for _ = 1 to p do
      Router.send_local_data (Deployment.router w.dep u) ~group:(List.nth groups k) ()
    done
  | Link (l, up) -> Net.set_link_up w.net l up
  | Crash u -> Net.set_node_up w.net u false
  | Recover u ->
    if not (Net.node_up w.net u) then begin
      Net.set_node_up w.net u true;
      Router.restart (Deployment.router w.dep u);
      Option.iter (fun b -> Bsr.restart b u) w.bsr
    end
  | Restart u -> Router.restart (Deployment.router w.dep u)
  | Hint (k, v) -> w.hint.(k) <- List.nth (hints k) v
  | Wait _ -> ()

(* Every router's entries with every timer a sweep reads, exactly. *)
let render w =
  let b = Buffer.create 1024 in
  Array.iter
    (fun r ->
      Fwd.iter (Router.fib r) (fun e ->
          Printf.bprintf b "%d %s expiry=%h rp_deadline=%h oifs=" (Router.node r)
            (Format.asprintf "%a" Fwd.pp_entry e)
            (Router.entry_expiry r e) e.Fwd.timers.rp_deadline;
          List.iter (fun (o : Fwd.oif) -> Printf.bprintf b "%d:%h " o.Fwd.iface o.Fwd.expires) e.Fwd.oifs;
          Buffer.add_char b '\n'))
    (Deployment.routers w.dep);
  Buffer.contents b

(* [Fwd.star_of] agrees with a lookup by group on every entry. *)
let stars_linked w =
  Array.for_all
    (fun r ->
      let fib = Router.fib r in
      List.for_all
        (fun (e : Fwd.entry) ->
          match (Fwd.star_of e, Fwd.find_star fib e.Fwd.group) with
          | Some a, Some b -> a == b
          | None, None -> true
          | _ -> false)
        (Fwd.entries fib))
    (Deployment.routers w.dep)

(* Run both worlds through [ops], comparing after every half sweep
   interval; [Error] names the first tick where they part. *)
let differential mapping ~seed ~len =
  let ops = ops mapping (Prng.create seed) ~len in
  let due = world mapping ~every_entry:false and all = world mapping ~every_entry:true in
  let step = config.Config.sweep_interval /. 2. in
  let rec advance ~until last =
    let t = Float.min until (Engine.now due.eng +. step) in
    Engine.run ~until:t due.eng;
    Engine.run ~until:t all.eng;
    if due.sent <> all.sent then Error (Printf.sprintf "t=%.2f after %s: frames sent differ" t last)
    else if not (String.equal (render due) (render all)) then
      Error
        (Printf.sprintf "t=%.2f after %s: forwarding state differs\n-- due-driven\n%s-- every entry\n%s"
           t last (render due) (render all))
    else if not (stars_linked due) then Error (Printf.sprintf "t=%.2f: star_of disagrees" t)
    else begin
      due.sent <- [];
      all.sent <- [];
      if t < until then advance ~until last else Ok ()
    end
  in
  let rec go last = function
    | [] -> advance ~until:(Engine.now due.eng +. 30.) last
    | Wait d :: tl -> (
      match advance ~until:(Engine.now due.eng +. d) last with Ok () -> go last tl | e -> e)
    | op :: tl ->
      apply due op;
      apply all op;
      go (pp_op op) tl
  in
  go "start" ops

let prop mapping ~count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "due-driven sweep matches every-entry sweep (%s RPs)" (mapping_name mapping))
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match differential mapping ~seed ~len:30 with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* Seeds on which the property once caught a sweep that skipped what it
   reads (a prune window, a local member's keepalive, a prune mask, an
   RPF change, a stale RP's retried failover), replayed on every run. *)
let pinned = [ (Static, 17); (Static, 7); (Static, 462319); (Static, 803145); (Hints, 970903) ]

let test_pinned () =
  List.iter
    (fun (mapping, seed) ->
      match differential mapping ~seed ~len:30 with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s seed %d: %s" (mapping_name mapping) seed msg)
    pinned
