module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Prng = Pim_util.Prng
module Counters = Pim_sim.Counters

type row = {
  rp_timeout : float;
  gap : float;
  delivered_before : int;
  delivered_after : int;
  failovers : int;
}

let group = Group.of_index 9

(* 3x3 grid: source behind 0, receiver behind 8, primary RP in the
   center (4), alternate RP at 2.  Crashing node 4 forces the receiver to
   rendezvous through the alternate. *)
let source = 0

let receiver = 8

let rp_primary = 4

let rp_alternate = 2

let crash_at = 30.

let stop_at = 75.

let one_timeout ~prng rp_timeout =
  let topo = Pim_graph.Classic.grid 3 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let config =
    {
      Pim_core.Config.fast with
      Pim_core.Config.rp_reach_period = 1.5;
      rp_timeout;
      sweep_interval = 0.5;
      (* Receivers stay on the RP tree: delivery then depends on the RP,
         which is what this experiment stresses. *)
      spt_policy = Pim_core.Config.Never;
    }
  in
  let v =
    List.assoc group
      (Stack.create_many
         ~placement:[ (group, [ rp_primary; rp_alternate ]) ]
         ~config:{ Stack.fast with sm = config } ~groups:[ group ] ~net Stack.Pim_sm)
  in
  v.Stack.join receiver;
  let arrivals = ref [] in
  v.Stack.on_data receiver (fun _ -> arrivals := Engine.now eng :: !arrivals);
  (* Seeded per-packet send jitter: the stream phase relative to the crash
     and the timers varies with the seed, so E2 explores different
     interleavings instead of replaying one. *)
  let rec send_loop t0 =
    if t0 < stop_at then
      ignore
        (Engine.schedule_at eng
           (t0 +. Prng.float prng 0.25)
           (fun () ->
             v.Stack.send_from source;
             send_loop (t0 +. 0.5)))
  in
  send_loop 10.;
  ignore (Engine.schedule_at eng crash_at (fun () -> Net.set_node_up net rp_primary false));
  Engine.run ~until:(stop_at +. 10.) eng;
  let times = List.sort Float.compare !arrivals in
  (* Largest inter-arrival gap once delivery is established. *)
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
    | _ -> acc
  in
  let established = List.filter (fun t -> t > 15.) times in
  let gap = max_gap 0. established in
  {
    rp_timeout;
    gap;
    delivered_before = List.length (List.filter (fun t -> t <= crash_at) times);
    delivered_after = List.length (List.filter (fun t -> t > crash_at) times);
    failovers = Counters.total (Net.counters net) Rp_failovers;
  }

let run ?(timeouts = [ 5.; 10.; 20. ]) ~seed () =
  (* One independent stream per row: adding draws to one timeout's run
     cannot perturb another's. *)
  let prng = Prng.create seed in
  List.map (fun tmo -> one_timeout ~prng:(Prng.split prng) tmo) timeouts

(* {1 Per-strategy election comparison}

   Same grid, crash and stream as the timeout sweep, but the RP mapping
   now comes from a placement strategy — installed statically, or (for
   "bsr") advertised through a live bootstrap election with no static
   configuration at all.  The crash always hits the strategy's primary
   RP. *)

type strategy_row = {
  strategy : string;
  gap : float;
  budget : float;
  delivered_before : int;
  delivered_after : int;
  failovers : int;
  elections : int;
  mapping_changes : int;
  control : int;
  orphaned_entries : int;
}

let all_strategies = [ "static"; "random"; "center"; "locality"; "vns"; "bsr" ]

let strategy_rp_timeout = 5.

let one_strategy ~prng ~seed strategy =
  let topo = Pim_graph.Classic.grid 3 3 in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let config =
    {
      Pim_core.Config.fast with
      Pim_core.Config.rp_reach_period = 1.5;
      rp_timeout = strategy_rp_timeout;
      sweep_interval = 0.5;
      spt_policy = Pim_core.Config.Never;
    }
  in
  let static = Pim_routing.Static.create net in
  let endpoints = [ source; receiver ] in
  let rp_nodes =
    match strategy with
    | "static" -> [ rp_primary; rp_alternate ]
    | s -> (
      match Stack.place_rps ~topo ~group ~endpoints ~seed s with
      | Some rps -> rps
      | None -> invalid_arg (Printf.sprintf "Failover.run_strategies: unknown strategy %S" s))
  in
  let placement = [ (group, List.map Addr.router rp_nodes) ] in
  let bsr, rp_set, budget =
    if String.equal strategy "bsr" then begin
      let cbsrs =
        List.init (Pim_graph.Topology.n_nodes topo) Fun.id
        |> List.filter (fun u -> not (List.mem u endpoints) && not (List.mem u rp_nodes))
        |> List.filteri (fun i _ -> i < 1)
        |> List.map (fun u -> (u, 1))
      in
      let roles =
        Pim_core.Placement.roles placement ~n_nodes:(Pim_graph.Topology.n_nodes topo) ~cbsrs
      in
      let b =
        Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~net
          ~ribs:(Pim_routing.Static.rib static) ~roles ()
      in
      ( Some b,
        Pim_core.Rp_set.empty,
        strategy_rp_timeout +. Pim_core.Bsr.failover_budget Pim_core.Bsr.fast )
    end
    else (None, Pim_core.Rp_set.of_list placement, strategy_rp_timeout)
  in
  let dep =
    (* pimlint: allow H6 — its own single-C-BSR choice, FIB walks *)
    Pim_core.Deployment.create ~config ?bsr ~net ~ribs:(Pim_routing.Static.rib static)
      ~rp_set ()
  in
  let r = Pim_core.Deployment.router dep receiver in
  Pim_core.Router.join_local r group;
  let arrivals = ref [] in
  Pim_core.Router.on_local_data r (fun _ -> arrivals := Engine.now eng :: !arrivals);
  let s = Pim_core.Deployment.router dep source in
  let rec send_loop t0 =
    if t0 < stop_at then
      ignore
        (Engine.schedule_at eng
           (t0 +. Prng.float prng 0.25)
           (fun () ->
             Pim_core.Router.send_local_data s ~group ();
             send_loop (t0 +. 0.5)))
  in
  send_loop 10.;
  let crash_target =
    match rp_nodes with rp0 :: _ -> rp0 | [] -> rp_primary
  in
  ignore (Engine.schedule_at eng crash_at (fun () -> Net.set_node_up net crash_target false));
  Engine.run ~until:(stop_at +. 10.) eng;
  let times = List.sort Float.compare !arrivals in
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
    | _ -> acc
  in
  let gap = max_gap 0. (List.filter (fun t -> t > 15.) times) in
  (* "(*,G)" entries still pointing at the dead RP are orphans the
     failover/soft-state machinery failed to re-home or expire. *)
  let crashed = Addr.router crash_target in
  let orphaned_entries = ref 0 in
  for u = 0 to Pim_graph.Topology.n_nodes topo - 1 do
    if u <> crash_target then
      List.iter
        (fun (e : Pim_mcast.Fwd.entry) ->
          if Pim_mcast.Fwd.is_star e && e.Pim_mcast.Fwd.rp = Some crashed then
            incr orphaned_entries)
        (Pim_mcast.Fwd.entries (Pim_core.Router.fib (Pim_core.Deployment.router dep u)))
  done;
  let counters = Net.counters net in
  {
    strategy;
    gap;
    budget;
    delivered_before = List.length (List.filter (fun t -> t <= crash_at) times);
    delivered_after = List.length (List.filter (fun t -> t > crash_at) times);
    failovers = Counters.total (Net.counters net) Rp_failovers;
    elections = Counters.total counters Elections_won;
    mapping_changes = Counters.total counters Mapping_changes;
    control = Metrics.control_traversals metrics;
    orphaned_entries = !orphaned_entries;
  }

let run_strategies ?(strategies = all_strategies) ~seed () =
  let prng = Prng.create seed in
  (* One split stream per strategy, keyed by the canonical list order, so
     selecting a subset never perturbs another strategy's draw. *)
  let streams =
    List.map (fun s -> (s, Prng.split prng)) all_strategies
  in
  List.filter_map
    (fun s ->
      match List.assoc_opt s streams with
      | Some stream -> Some (one_strategy ~prng:stream ~seed s)
      | None ->
        invalid_arg (Printf.sprintf "Failover.run_strategies: unknown strategy %S" s))
    strategies

let pp_strategy_rows ppf rows =
  Format.fprintf ppf
    "# E2 (strategies): primary RP crash at t=30 under each placement strategy@.";
  Format.fprintf ppf "# %-9s %8s %8s %6s %5s %9s %9s %8s %8s %8s@." "strategy" "gap"
    "budget" "before" "after" "failovers" "elections" "mapchg" "control" "orphans";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-9s %8.2f %8.2f %6d %5d %9d %9d %8d %8d %8d@." r.strategy r.gap
        r.budget r.delivered_before r.delivered_after r.failovers r.elections
        r.mapping_changes r.control r.orphaned_entries)
    rows

let pp_rows ppf rows =
  Format.fprintf ppf "# E2: RP failover (primary RP crashes at t=30; 2 pkt/s until t=75)@.";
  Format.fprintf ppf "# rp_timeout  delivery_gap  before  after  failovers@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%11.1f  %12.2f  %6d  %5d  %9d@." r.rp_timeout r.gap
        r.delivered_before r.delivered_after r.failovers)
    rows
