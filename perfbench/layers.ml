module W = Pim_exp.Workload
module Stack = Pim_exp.Stack
module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Fault = Pim_sim.Fault
module Static = Pim_routing.Static
module Topology = Pim_graph.Topology
module Transit_stub = Pim_graph.Transit_stub
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr

type values = (string * float) list

(* Both harnesses size transit-stub networks this way (private to them):
   one transit router per ~40, three stubs each. *)
let transit_stub_sizes ~nodes =
  let transit = Int.max 2 (nodes / 40) in
  let stubs_per_transit = 3 in
  let stub_size = Int.max 1 (((nodes / transit) - 1) / stubs_per_transit) in
  (transit, stubs_per_transit, stub_size)

(* {1 Zap} *)

(* Workload.run replays on the topology drawn from the first split of the
   seed's stream, the same draw Workload.generate placed receivers on. *)
let zap_topology (spec : W.spec) =
  let transit, stubs_per_transit, stub_size = transit_stub_sizes ~nodes:spec.W.nodes in
  Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~backbone_delay:0.5
    ~access_delay:0.5
    ~prng:(Prng.split (Prng.create spec.W.seed))
    ()

let rp_election (spec : W.spec) =
  match spec.W.rp_strategy with W.Elected _ -> true | W.Single | W.Sharded _ -> false

let deploy (spec : W.spec) (sched : W.schedule) net =
  Stack.create_many
    ~placement:(List.map (fun (gi, rps) -> (Group.of_index gi, rps)) sched.W.rp_placement)
    ~rp_election:(rp_election spec)
    ~groups:(List.init spec.W.groups Group.of_index)
    ~net spec.W.protocol
  |> List.map snd |> Array.of_list

let zap_setup spec =
  let sched = W.generate spec in
  let ts = zap_topology spec in
  let net = Net.create (Engine.create ()) ts.Transit_stub.topo in
  ignore (Sys.opaque_identity (deploy spec sched net))

type counts = { node_joins : int; traversals : int; entries_end : int }

let report_counts (r : W.report) =
  {
    node_joins = r.W.total_node_joins;
    traversals = r.W.total_control + r.W.total_data;
    entries_end = r.W.entries_end;
  }

type replay = { layers : values; counts : counts; total_s : float; accounted_s : float }

let proto_key p =
  String.map (function '-' -> '_' | c -> c) (String.lowercase_ascii (Stack.to_string p))

(* Add the call's self time to [acc] and count it.  Fully applied, so the
   packet path allocates nothing extra. *)
let timed acc calls f x =
  let t0 = Probe.now_ns () in
  f x;
  acc := !acc + (Probe.now_ns () - t0);
  incr calls

let zap_replay (spec : W.spec) =
  let t_begin = Probe.now_ns () in
  let sched, c_gen = Probe.measure (fun () -> W.generate spec) in
  let spec = sched.W.spec in
  let ts, c_topo = Probe.measure (fun () -> zap_topology spec) in
  let topo = ts.Transit_stub.topo in
  let n = Topology.n_nodes topo in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  (* Handlers run in installation order and Net.send never delivers
     synchronously, so the time between a hook installed before the
     deployment and one installed after it is the protocol handlers' own
     time for that delivery. *)
  let entered = ref 0 and handle_ns = ref 0 and handle_calls = ref 0 in
  for u = 0 to n - 1 do
    Net.set_handler net u (fun ~iface:_ _ -> entered := Probe.now_ns ())
  done;
  let stacks, c_deploy = Probe.measure (fun () -> deploy spec sched net) in
  for u = 0 to n - 1 do
    Net.set_handler net u (fun ~iface:_ _ ->
        handle_ns := !handle_ns + (Probe.now_ns () - !entered);
        incr handle_calls)
  done;
  let stack gi = stacks.(gi) in
  (* Everything below mirrors Workload.run's replay, in its order, so the
     engine sees the same events with the same tie-break sequence. *)
  let data = ref 0 and control = ref 0 and in_windows = ref 0 in
  Net.on_deliver net (fun _ pkt -> if Pim_exp.Metrics.is_data pkt then incr data else incr control);
  let idx g node = (g * n) + node in
  let counts = Array.make (spec.W.groups * n) 0 in
  let waiting = Array.make (spec.W.groups * n) (-1.) in
  let registered = Array.make (spec.W.groups * n) false in
  let first_deliveries = ref 0 and node_joins = ref 0 in
  let join_ns = ref 0 and joins = ref 0 in
  let leave_ns = ref 0 and leaves = ref 0 in
  let send_ns = ref 0 and sends = ref 0 in
  let apply (ev : W.sevent) =
    let i = idx ev.W.group ev.W.node in
    match ev.W.action with
    | W.Join ->
      counts.(i) <- counts.(i) + 1;
      if counts.(i) = 1 then begin
        incr node_joins;
        if not registered.(i) then begin
          registered.(i) <- true;
          (* Workload.run's join-latency callback, at similar cost. *)
          (stack ev.W.group).Stack.on_data ev.W.node (fun _ ->
              if waiting.(i) >= 0. then begin
                incr first_deliveries;
                waiting.(i) <- -1.
              end)
        end;
        waiting.(i) <- Engine.now eng;
        timed join_ns joins (stack ev.W.group).Stack.join ev.W.node
      end
    | W.Leave ->
      if counts.(i) > 0 then begin
        counts.(i) <- counts.(i) - 1;
        if counts.(i) = 0 then begin
          waiting.(i) <- -1.;
          timed leave_ns leaves (stack ev.W.group).Stack.leave ev.W.node
        end
      end
  in
  Array.iter (fun ev -> ignore (Engine.schedule_at eng ev.W.t (fun () -> apply ev))) sched.W.events;
  Array.iter
    (fun (gi, src) ->
      ignore
        (Engine.every eng
           ~start:(1.0 +. (0.01 *. float_of_int gi))
           ~interval:1.0
           (fun () -> timed send_ns sends (stack gi).Stack.send_from src)))
    sched.W.sources;
  (* Window rolls: Workload.run counts a traversal while a window is open,
     so the last roll at [duration] closes the count. *)
  let n_win = Int.max 1 (int_of_float (ceil ((spec.W.duration /. spec.W.window) -. 1e-9))) in
  for k = 1 to n_win do
    let t_end = Float.min spec.W.duration (float_of_int k *. spec.W.window) in
    ignore
      (Engine.schedule_at eng t_end (fun () ->
           ignore (Sys.opaque_identity ((stack 0).Stack.spt_switches ()));
           if k = n_win then in_windows := !data + !control))
  done;
  let settle = Stack.settle_hint ~rp_election:(rp_election spec) spec.W.protocol in
  let (), c_run = Probe.measure (fun () -> Engine.run ~until:(spec.W.duration +. settle) eng) in
  let problems, c_oracle =
    Probe.measure (fun () ->
        List.fold_left
          (fun acc (_, check) -> acc + List.length (check ()))
          0 (stack 0).Stack.state_checks)
  in
  let entries_end = (stack 0).Stack.entries () in
  let spt_switches = (stack 0).Stack.spt_switches () in
  let total_s = Probe.seconds (Probe.now_ns () - t_begin) in
  let handle_s = Probe.seconds !handle_ns in
  let join_s = Probe.seconds !join_ns
  and leave_s = Probe.seconds !leave_ns
  and send_s = Probe.seconds !send_ns in
  let engine_net_s = c_run.Probe.wall_s -. handle_s -. join_s -. leave_s -. send_s in
  let accounted_s =
    c_topo.Probe.wall_s +. c_gen.Probe.wall_s +. c_deploy.Probe.wall_s +. handle_s +. join_s
    +. leave_s +. send_s +. engine_net_s +. c_oracle.Probe.wall_s
  in
  let f = float_of_int in
  {
    layers =
      [
        ("transit_stub.generate_s", c_topo.Probe.wall_s);
        ("workload.generate_s", c_gen.Probe.wall_s);
        ("workload.events", f (Array.length sched.W.events));
        ("stack.create_many_s", c_deploy.Probe.wall_s);
        ("stack.create_many_alloc_mb", c_deploy.Probe.alloc_mb);
        ("router.handle_s", handle_s);
        ("router.handle_calls", f !handle_calls);
        ("router." ^ proto_key spec.W.protocol ^ ".handle_s", handle_s);
        ("stack.join_s", join_s);
        ("stack.joins", f !joins);
        ("stack.leave_s", leave_s);
        ("stack.leaves", f !leaves);
        ("stack.send_s", send_s);
        ("stack.sends", f !sends);
        ("engine.run_s", c_run.Probe.wall_s);
        ("engine.run_alloc_mb", c_run.Probe.alloc_mb);
        ("engine_net.self_s", engine_net_s);
        ("engine.pending_end", f (Engine.pending eng));
        ("net.offered", f (Net.offered net));
        ("net.traversals", f (Net.total_traversals net));
        ("net.dropped", f (Net.dropped net));
        ("fwd.entries_end", f entries_end);
        ("router.spt_switches", f spt_switches);
        ("oracle.check_s", c_oracle.Probe.wall_s);
        ("oracle.problems", f problems);
      ];
    counts = { node_joins = !node_joins; traversals = !in_windows; entries_end };
    total_s;
    accounted_s;
  }

(* {1 Unicast RIB} *)

let uses_static = function
  | Stack.Pim_sm | Stack.Pim_dm | Stack.Dvmrp | Stack.Cbt -> true
  | Stack.Mospf -> false

let static_probe ?(refreshes = 0) topo =
  let net = Net.create (Engine.create ()) topo in
  let static, cost = Probe.measure (fun () -> Static.create net) in
  let refresh_s =
    if refreshes <= 0 then 0.
    else
      Probe.median
        (List.init refreshes (fun _ ->
             (snd (Probe.measure (fun () -> Static.refresh static))).Probe.wall_s))
  in
  (cost, refresh_s)

(* {1 Chaos} *)

let chaos_topology ~nodes ~prng =
  let transit, stubs_per_transit, stub_size = transit_stub_sizes ~nodes in
  Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~prng ()

(* Chaos.run's defaults: 5 receivers, 8 faults over [20, 60), 8 s mean
   outage, the group-7 stream with the first member as RP. *)
let chaos_setup ~nodes ~seed =
  let prng = Prng.create seed in
  let ts = chaos_topology ~nodes ~prng in
  let topo = ts.Transit_stub.topo in
  let rec pick acc =
    if List.length acc = 5 then List.rev acc
    else
      let m = Transit_stub.random_stub_member ts ~prng in
      pick (if List.mem m acc then acc else m :: acc)
  in
  let members = pick [] in
  let source =
    let nodes = List.init (Topology.n_nodes topo) Fun.id in
    match List.find_opt (fun u -> not (List.mem u members)) nodes with
    | Some u -> u
    | None -> 0
  in
  let schedule =
    Fault.random_schedule ~prng:(Prng.split prng) ~topo ~start:20. ~until:60.
      ~protected:(source :: members) ~events:8 ~mean_outage:8. ()
  in
  let net = Net.create (Engine.create ()) topo in
  let static = Static.create net in
  let d =
    Pim_core.Deployment.create ~config:Pim_core.Config.fast ~net ~ribs:(Static.rib static)
      ~rp_set:(Pim_core.Rp_set.single (Group.of_index 7) (Addr.router (List.hd members)))
      ()
  in
  ignore (Sys.opaque_identity (schedule, d))

let link_changes topo schedule =
  let crossing nodes =
    Array.fold_left
      (fun acc (l : Topology.link) ->
        let inside u = List.mem u nodes in
        let ends = l.Topology.ends in
        if Array.exists inside ends && Array.exists (fun u -> not (inside u)) ends
        then acc + 1
        else acc)
      0 (Topology.links topo)
  in
  List.fold_left
    (fun acc (e : Fault.event) ->
      acc
      +
      match e.Fault.action with
      | Fault.Link_down _ | Fault.Link_up _ -> 1
      | Fault.Link_flap _ -> 2
      | Fault.Node_crash (u, _) -> 2 * Topology.degree topo u
      | Fault.Partition nodes -> 2 * crossing nodes
      | Fault.Heal | Fault.Loss_burst _ | Fault.Jitter_burst _ | Fault.Drop_next _
      | Fault.Duplicate_next _ | Fault.Delay_next _ ->
        0)
    0 schedule
