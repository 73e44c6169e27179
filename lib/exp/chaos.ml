module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Fault = Pim_sim.Fault
module Oracle = Pim_sim.Oracle
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Topology = Pim_graph.Topology
module Random_graph = Pim_graph.Random_graph
module Fwd = Pim_mcast.Fwd
module Mdata = Pim_mcast.Mdata

let group = Group.of_index 7

(* Timeline (virtual seconds; all protocols use their fast configs):
   joins at 0, steady 2 pkt/s stream from [stream_start], faults injected
   in [fault_start, fault_end) with every outage healed by [fault_end],
   then a per-protocol [recover_wait], then the oracle checkpoint: probe
   burst (loop freedom + reachability on the wire) and state checks.
   Finally all members leave and after [drain_wait] any state above the
   protocol's residual floor is orphaned. *)
let stream_start = 10.0

let stream_interval = 0.5

let fault_start = 20.0

let burst_probes = 5

let burst_spacing = 0.4

(* Probe delivery bound for the default 30-node random topologies (unit
   link delays); wide-area transit-stub runs compute their own bound
   from the topology's link delays. *)
let default_delay_bound = 10.0

type setup = {
  name : string;
  join : Topology.node -> (Pim_net.Packet.t -> unit) -> unit;
  leave : Topology.node -> unit;
  send : unit -> unit;
  entries : unit -> int;
  restart : Topology.node -> unit;
  state_checks : (string * (unit -> string list)) list;
  max_copies : int;  (* legitimate per-link copies of one packet *)
  recover_wait : float;  (* post-heal settle time before the checkpoint *)
  drain_wait : float;  (* post-leave time before the orphan check *)
  residual_floor : int;  (* state entries legitimately left after drain *)
}

type row = {
  protocol : string;
  deliveries : int;
  expected : int;
  dup_deliveries : int;
  max_gap : float;  (* worst per-receiver silence during the stream *)
  mean_convergence : float;  (* fault onset -> first fully-delivered send *)
  max_convergence : float;
  churn_control : int;  (* control traversals during the fault window *)
  total_control : int;
  restarts : int;
  residual_entries : int;
  violations : Oracle.violation list;
}

type report = {
  seed : int;
  schedule : Fault.event list;
  rows : row list;
}

let fault_onsets schedule =
  List.filter_map
    (fun (e : Fault.event) ->
      match e.Fault.action with
      | Fault.Link_down _ | Fault.Link_flap _ | Fault.Node_crash _ | Fault.Partition _ ->
        Some e.Fault.at
      | _ -> None)
    schedule

let run_protocol ~topo ~schedule ~fault_end ~members ~source ~delay_bound
    ~(build : Net.t -> setup) =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let s = build net in
  (* While faults are active, an in-flight packet crossing an RPF change
     can legitimately traverse one link an extra time; only sustained
     duplication there means a loop.  The quiet checkpoint below drops
     back to the protocol's strict bound. *)
  let oracle =
    Oracle.create ~max_copies:(s.max_copies + 2) net ~probe_id:(fun pkt ->
        Option.map (fun (i : Mdata.info) -> i.Mdata.seq) (Mdata.info pkt))
  in
  let n_recv = List.length members in
  (* seq -> receivers that got it (dedup), plus completion times. *)
  let recv_log : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 512 in
  let per_recv : (int, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let full_times = ref [] in
  let deliveries = ref 0 in
  let dups = ref 0 in
  List.iter
    (fun m ->
      Hashtbl.replace per_recv m (ref []);
      s.join m (fun pkt ->
          match Mdata.info pkt with
          | None -> ()
          | Some { Mdata.seq; sent_at } ->
            Oracle.note_received oracle ~node:m ~probe:seq;
            let tbl =
              match Hashtbl.find_opt recv_log seq with
              | Some tbl -> tbl
              | None ->
                let tbl = Hashtbl.create 8 in
                Hashtbl.replace recv_log seq tbl;
                tbl
            in
            if Hashtbl.mem tbl m then incr dups
            else begin
              Hashtbl.replace tbl m ();
              incr deliveries;
              (match Hashtbl.find_opt per_recv m with
              | Some l -> l := sent_at :: !l
              | None -> ());
              if Hashtbl.length tbl = n_recv then full_times := sent_at :: !full_times
            end))
    members;
  (* Steady stream up to the checkpoint, then the probe burst. *)
  let checkpoint_start = fault_end +. s.recover_wait in
  let n_stream =
    int_of_float (Float.round ((checkpoint_start -. stream_start) /. stream_interval))
  in
  for i = 0 to n_stream - 1 do
    ignore
      (Engine.schedule_at eng (stream_start +. (stream_interval *. float_of_int i)) s.send)
  done;
  (* Control-plane cost attributable to the churn itself. *)
  let ctl_start = ref 0 and ctl_end = ref 0 in
  ignore
    (Engine.schedule_at eng fault_start (fun () -> ctl_start := Metrics.control_traversals metrics));
  ignore
    (Engine.schedule_at eng fault_end (fun () -> ctl_end := Metrics.control_traversals metrics));
  ignore (Fault.install ~restart:s.restart net schedule);
  (* Checkpoint: fresh probe epoch so reconvergence-era duplicates (which
     are legitimate, e.g. SPT-switchover overlap) are not charged as
     loops; every burst probe must reach every member within the bound. *)
  ignore
    (Engine.schedule_at eng checkpoint_start (fun () ->
         Oracle.set_max_copies oracle s.max_copies;
         Oracle.reset_probes oracle));
  let burst_seqs = List.init burst_probes (fun k -> n_stream + k) in
  List.iteri
    (fun k _ ->
      ignore
        (Engine.schedule_at eng
           (checkpoint_start +. 0.01 +. (burst_spacing *. float_of_int k))
           s.send))
    burst_seqs;
  let checkpoint_end =
    checkpoint_start +. (burst_spacing *. float_of_int burst_probes) +. delay_bound
  in
  ignore
    (Engine.schedule_at eng checkpoint_end (fun () ->
         List.iter (fun (inv, f) -> Oracle.run_check oracle ~invariant:inv f) s.state_checks;
         List.iter
           (fun probe ->
             let got = Oracle.received_by oracle ~probe in
             List.iter
               (fun m ->
                 if not (List.mem m got) then
                   Oracle.record oracle ~invariant:"reachability"
                     (Printf.sprintf "probe %d not delivered to member %d within %.0fs"
                        probe m delay_bound))
               members)
           burst_seqs;
         Oracle.check_blackhole oracle ~source ~members ~probes:burst_seqs;
         List.iter s.leave members));
  let t_end = checkpoint_end +. s.drain_wait in
  Engine.run ~until:t_end eng;
  let residual = s.entries () in
  if residual > s.residual_floor then
    Oracle.record oracle ~invariant:"orphaned-state"
      (Printf.sprintf "%d state entries remain %.0fs after all members left (floor %d)"
         residual s.drain_wait s.residual_floor);
  (* Convergence: for each fault onset, the earliest send at-or-after it
     that every member received. *)
  let full_sorted = List.sort Float.compare !full_times in
  let onsets = fault_onsets schedule in
  let convergences =
    List.map
      (fun f ->
        match List.find_opt (fun tm -> tm >= f) full_sorted with
        | Some tm -> tm -. f
        | None -> t_end -. f)
      onsets
  in
  let mean_convergence =
    match convergences with
    | [] -> 0.
    | cs -> List.fold_left ( +. ) 0. cs /. float_of_int (List.length cs)
  in
  let max_convergence = List.fold_left Float.max 0. convergences in
  (* Worst silent stretch any receiver saw, in send-timestamp terms. *)
  let max_gap =
    Hashtbl.fold
      (fun _ times acc ->
        let ts = List.sort Float.compare !times in
        let rec gaps prev = function
          | [] -> checkpoint_start -. prev
          | x :: rest -> Float.max (x -. prev) (gaps x rest)
        in
        Float.max acc (gaps stream_start ts))
      per_recv 0.
  in
  {
    protocol = s.name;
    deliveries = !deliveries;
    expected = (n_stream + burst_probes) * n_recv;
    dup_deliveries = !dups;
    max_gap;
    mean_convergence;
    max_convergence;
    churn_control = !ctl_end - !ctl_start;
    total_control = Metrics.control_traversals metrics;
    restarts =
      List.length
        (List.filter
           (fun (e : Fault.event) ->
             match e.Fault.action with Fault.Node_crash _ -> true | _ -> false)
           schedule);
    residual_entries = residual;
    violations = Oracle.violations oracle;
  }

(* {1 Protocol adapters} *)

(* The PIM structural invariants now live in {!Stack} (shared with the
   scenario DSL); this is the chaos-flavored phrasing over a static
   deployment. *)
let pim_state_checks ~net ~static ~deployment:d =
  Stack.pim_state_checks ~net
    ~rib:(Pim_routing.Static.rib static)
    ~fib:(fun u -> Pim_core.Router.fib (Pim_core.Deployment.router d u))

let pim_setup ~rp_mode ~source net =
  let config = Pim_core.Config.fast in
  let static = Pim_routing.Static.create net in
  let bsr, rp_set, election_wait =
    match rp_mode with
    | `Static rp_set -> (None, rp_set, 0.)
    | `Bsr roles ->
      let b =
        Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~net
          ~ribs:(Pim_routing.Static.rib static) ~roles ()
      in
      (* A crashed-and-restarted RP re-enters the mapping only after its
         advert reaches the BSR and a bootstrap flood spreads it; routers
         then notice stale shared trees via rp_timeout.  Both waits come
         on top of the usual join/prune refresh settle time. *)
      ( Some b,
        Pim_core.Rp_set.empty,
        Pim_core.Bsr.failover_budget Pim_core.Bsr.fast +. config.Pim_core.Config.rp_timeout )
  in
  let d =
    Pim_core.Deployment.create ~config ?bsr ~net ~ribs:(Pim_routing.Static.rib static) ~rp_set ()
  in
  {
    name = "PIM-SM";
    join =
      (fun m cb ->
        let r = Pim_core.Deployment.router d m in
        Pim_core.Router.join_local r group;
        Pim_core.Router.on_local_data r cb);
    leave = (fun m -> Pim_core.Router.leave_local (Pim_core.Deployment.router d m) group);
    send =
      (fun () -> Pim_core.Router.send_local_data (Pim_core.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_core.Deployment.total_entries d);
    restart =
      (fun u ->
        Pim_core.Router.restart (Pim_core.Deployment.router d u);
        Option.iter (fun b -> Pim_core.Bsr.restart b u) bsr);
    state_checks = pim_state_checks ~net ~static ~deployment:d;
    max_copies = 1;
    (* A few jp_periods: crashed transit routers are rebuilt by their
       downstream neighbors' periodic refresh, one hop per period worst
       case. *)
    recover_wait = (5. *. config.Pim_core.Config.jp_period) +. election_wait;
    (* Soft state tears down serially: the RP's entry lingers past the
       last data, then each hop toward the source keeps refreshing its
       upstream until its own oif times out — one oif holdtime per hop,
       bounded by the source's eccentricity. *)
    drain_wait =
      (let src_rib = Pim_routing.Static.rib static source in
       let n = Topology.n_nodes (Net.topo net) in
       let ecc = ref 0 in
       (* Links cost the same both ways, so the source's own table gives
          every router's distance to it. *)
       for u = 0 to n - 1 do
         match src_rib.Pim_routing.Rib.distance (Addr.router u) with
         | Some d -> ecc := max !ecc d
         | None -> ()
       done;
       config.Pim_core.Config.entry_linger
       +. (float_of_int (!ecc + 2) *. config.Pim_core.Config.oif_holdtime)
       +. (3. *. config.Pim_core.Config.sweep_interval));
    residual_floor = 0;
  }

let dense_setup ~source net =
  let config = { Pim_dense.Router.fast_config with mode = Pim_dense.Router.Pim_dm; graft = true } in
  let d = Pim_dense.Router.Deployment.create_static ~config net in
  {
    name = "PIM-DM";
    join =
      (fun m cb ->
        let r = Pim_dense.Router.Deployment.router d m in
        Pim_dense.Router.join_local r group;
        Pim_dense.Router.on_local_data r cb);
    leave = (fun m -> Pim_dense.Router.leave_local (Pim_dense.Router.Deployment.router d m) group);
    send =
      (fun () ->
        Pim_dense.Router.send_local_data (Pim_dense.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_dense.Router.Deployment.total_entries d);
    restart = (fun u -> Pim_dense.Router.restart (Pim_dense.Router.Deployment.router d u));
    state_checks = [];
    (* Broadcast-and-prune legitimately puts one copy per link direction
       on the wire (the flood, then the prune); only a third copy of the
       same packet on one link indicates a loop. *)
    max_copies = 2;
    (* A stale-iif entry heals only after the prune/grow-back cycle lets
       it expire: prune_timeout + entry_linger. *)
    recover_wait =
      config.Pim_dense.Router.prune_timeout +. config.Pim_dense.Router.entry_linger +. 5.;
    drain_wait =
      config.Pim_dense.Router.entry_linger +. (3. *. config.Pim_dense.Router.sweep_interval);
    residual_floor = 0;
  }

let cbt_setup ~core ~source net =
  let config = Pim_cbt.Router.fast_config in
  let core_of g = if Group.equal g group then Some (Addr.router core) else None in
  let d = Pim_cbt.Router.Deployment.create_static ~config net ~core_of in
  {
    name = "CBT";
    join =
      (fun m cb ->
        let r = Pim_cbt.Router.Deployment.router d m in
        Pim_cbt.Router.join_local r group;
        Pim_cbt.Router.on_local_data r cb);
    leave = (fun m -> Pim_cbt.Router.leave_local (Pim_cbt.Router.Deployment.router d m) group);
    send =
      (fun () ->
        Pim_cbt.Router.send_local_data (Pim_cbt.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_cbt.Router.Deployment.total_entries d);
    restart = (fun u -> Pim_cbt.Router.restart (Pim_cbt.Router.Deployment.router d u));
    state_checks = [];
    max_copies = 1;
    (* Hard state heals slowest: a child only notices a dead parent after
       parent_timeout, then flushes and rejoins. *)
    recover_wait =
      config.Pim_cbt.Router.parent_timeout +. config.Pim_cbt.Router.rejoin_delay
      +. (3. *. config.Pim_cbt.Router.echo_interval);
    drain_wait =
      config.Pim_cbt.Router.child_timeout +. (4. *. config.Pim_cbt.Router.echo_interval);
    (* The core never tears down its own entry. *)
    residual_floor = 1;
  }

let mospf_setup ~source ~members net =
  let lsa_refresh = 5. in
  let d = Pim_mospf.Router.Deployment.create ~lsa_refresh net in
  let topo = Net.topo net in
  let n = Topology.n_nodes topo in
  (* Flooded membership must be in sync domain-wide: every live router
     knows every live member (the whole premise of MOSPF's design). *)
  let membership_check () =
    let problems = ref [] in
    for u = 0 to n - 1 do
      if Net.node_up net u then
        List.iter
          (fun m ->
            if
              Net.node_up net m
              && not (Pim_mospf.Router.knows_member (Pim_mospf.Router.Deployment.router d u) m group)
            then
              problems :=
                Printf.sprintf "router %d does not know member %d of %s" u m
                  (Group.to_string group)
                :: !problems)
          members
    done;
    !problems
  in
  {
    name = "MOSPF";
    join =
      (fun m cb ->
        let r = Pim_mospf.Router.Deployment.router d m in
        Pim_mospf.Router.join_local r group;
        Pim_mospf.Router.on_local_data r cb);
    leave = (fun m -> Pim_mospf.Router.leave_local (Pim_mospf.Router.Deployment.router d m) group);
    send =
      (fun () ->
        Pim_mospf.Router.send_local_data (Pim_mospf.Router.Deployment.router d source) ~group ());
    entries = (fun () -> Pim_mospf.Router.Deployment.total_membership_entries d);
    restart = (fun u -> Pim_mospf.Router.restart (Pim_mospf.Router.Deployment.router d u));
    state_checks = [ ("membership-sync", membership_check) ];
    max_copies = 1;
    (* A restarted router relearns the domain's LSAs within one refresh. *)
    recover_wait = (2. *. lsa_refresh) +. 5.;
    drain_wait = 10.;
    residual_floor = 0;
  }

(* {1 The experiment} *)

let transit_stub_sizes ~nodes =
  (* One transit router per ~40 total, three stubs each; e.g. 2000 nodes
     -> transit 50, stub size 13 (50 + 50*3*13 = 2000 exactly). *)
  let transit = Int.max 2 (nodes / 40) in
  let stubs_per_transit = 3 in
  let stub_size = Int.max 1 (((nodes / transit) - 1) / stubs_per_transit) in
  (transit, stubs_per_transit, stub_size)

let run ?(nodes = 30) ?(degree = 4.) ?(receivers = 5) ?(events = 8) ?(fault_window = 40.)
    ?(mean_outage = 8.) ?(topology = `Random) ?(fault = `Random) ?(rp_strategy = "static")
    ?protocols ~seed () =
  let prng = Prng.create seed in
  let topo, members, delay_bound =
    match topology with
    | `Random ->
      let topo = Random_graph.generate ~prng ~nodes ~degree () in
      (topo, Random_graph.pick_members ~prng ~nodes ~count:receivers, default_delay_bound)
    | `Transit_stub ->
      let transit, stubs_per_transit, stub_size = transit_stub_sizes ~nodes in
      let candidates = transit * stubs_per_transit * Int.max 1 (stub_size - 1) in
      if receivers > candidates then
        invalid_arg "Chaos.run: more receivers than stub routers";
      let ts = Pim_graph.Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~prng () in
      (* Members live behind stub gateways, as wide-area receivers do. *)
      let seen = Hashtbl.create 16 in
      let members = ref [] in
      while Hashtbl.length seen < receivers do
        let m = Pim_graph.Transit_stub.random_stub_member ts ~prng in
        if not (Hashtbl.mem seen m) then begin
          Hashtbl.add seen m ();
          members := m :: !members
        end
      done;
      (* Worst one-way delay with the generator's default link delays:
         half the backbone ring (5 s/hop — chords only shorten it), an
         access link (3 s) and a stub spanning tree (1 s/hop) at each
         end.  Data crosses it twice (source up the RP tree, then down
         to a member), plus slack for encapsulation hops. *)
      let one_way =
        (5. *. float_of_int ((transit / 2) + 1))
        +. (2. *. (3. +. float_of_int stub_size))
      in
      (ts.Pim_graph.Transit_stub.topo, List.rev !members, (2. *. one_way) +. 10.)
  in
  let nodes = Topology.n_nodes topo in
  let source =
    match List.find_opt (fun u -> not (List.mem u members)) (List.init nodes Fun.id) with
    | Some u -> u
    | None -> 0
  in
  let rp = List.hd members in
  let endpoints = source :: members in
  (* RP placement per [rp_strategy].  Endpoints are excluded from every
     computed pool so rp-crash fault targets never hit the protected
     source or receivers; the legacy "static" strategy keeps the first
     member as RP except in rp-crash runs, where it falls back to the
     first two non-endpoint routers. *)
  let placement =
    match rp_strategy with
    | "static" -> (
      match fault with
      | `Random -> [ (group, [ Addr.router rp ]) ]
      | `Rp_crash ->
        let pool =
          List.init nodes Fun.id
          |> List.filter (fun u -> not (List.mem u endpoints))
          |> List.filteri (fun i _ -> i < 2)
        in
        [ (group, List.map Addr.router pool) ])
    | "bsr" ->
      Pim_core.Placement.compute ~topo ~groups:[ (group, endpoints) ] ~forbidden:endpoints
        ~seed (Pim_core.Placement.Centered 2)
    | s -> (
      match Pim_core.Placement.named s with
      | Some spec ->
        Pim_core.Placement.compute ~topo ~groups:[ (group, endpoints) ] ~forbidden:endpoints
          ~seed spec
      | None -> invalid_arg (Printf.sprintf "Chaos.run: unknown RP strategy %S" s))
  in
  let rp_nodes =
    List.concat_map (fun (_, rps) -> List.filter_map Addr.router_index rps) placement
    |> List.sort_uniq Int.compare
  in
  let rp_mode =
    if String.equal rp_strategy "bsr" then
      (* Candidate BSRs sit off both the endpoints and the RP targets so
         the election substrate itself survives the targeted faults. *)
      let cbsrs =
        List.init nodes Fun.id
        |> List.filter (fun u -> not (List.mem u endpoints) && not (List.mem u rp_nodes))
        |> List.filteri (fun i _ -> i < 2)
        |> List.mapi (fun i u -> (u, 2 - i))
      in
      `Bsr (Pim_core.Placement.roles placement ~n_nodes:nodes ~cbsrs)
    else `Static (Pim_core.Placement.rp_set_of placement)
  in
  let fault_end = fault_start +. fault_window in
  (* One schedule, decided before any protocol runs, replayed verbatim
     against each of them. *)
  let schedule =
    match fault with
    | `Random ->
      Fault.random_schedule ~prng:(Prng.split prng) ~topo ~start:fault_start ~until:fault_end
        ~protected:endpoints ~events ~mean_outage ()
    | `Rp_crash ->
      Fault.targeted_schedule ~prng:(Prng.split prng) ~targets:rp_nodes ~start:fault_start
        ~until:fault_end ~events ~mean_outage ()
  in
  let go build = run_protocol ~topo ~schedule ~fault_end ~members ~source ~delay_bound ~build in
  (* Canonical report order: the fixed protocol list below — the report
     row order is part of the byte-identical reproducibility contract.
     [protocols] selects a subset (large-topology scale runs exercise
     one protocol at a time) without disturbing that order.  RP-crash
     runs default to PIM-SM alone: only it consumes the RP placement
     under test (CBT keeps its legacy member-homed core). *)
  (* A typo in the filter must fail loudly, not silently run nothing. *)
  let known = [ "PIM-SM"; "PIM-DM"; "CBT"; "MOSPF" ] in
  Option.iter
    (List.iter (fun p ->
         if not (List.exists (String.equal p) known) then
           invalid_arg
             (Printf.sprintf "Chaos.run: unknown protocol %S (expected one of %s)" p
                (String.concat ", " known))))
    protocols;
  let wanted name =
    match protocols with
    | Some ps -> List.exists (String.equal name) ps
    | None -> ( match fault with `Random -> true | `Rp_crash -> String.equal name "PIM-SM")
  in
  let rows =
    [
      ("PIM-SM", pim_setup ~rp_mode ~source);
      ("PIM-DM", dense_setup ~source);
      ("CBT", cbt_setup ~core:rp ~source);
      ("MOSPF", mospf_setup ~source ~members);
    ]
    |> List.filter_map (fun (name, build) -> if wanted name then Some (go build) else None)
  in
  { seed; schedule; rows }

let total_violations report =
  List.fold_left (fun acc r -> acc + List.length r.violations) 0 report.rows

let pp_report ppf report =
  Format.fprintf ppf
    "# chaos: identical fault schedule vs all four protocols (seed %d)@." report.seed;
  Format.fprintf ppf "# schedule:@.";
  List.iter (fun e -> Format.fprintf ppf "#   %a@." Fault.pp_event e) report.schedule;
  Format.fprintf ppf "# %-8s %9s %7s %5s %8s %9s %9s %9s %6s %6s %5s@." "protocol" "delivered"
    "expect" "dup" "max_gap" "conv_mean" "conv_max" "ctl_churn" "restrt" "resid" "viol";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8s %9d %7d %5d %8.2f %9.2f %9.2f %9d %6d %6d %5d@." r.protocol
        r.deliveries r.expected r.dup_deliveries r.max_gap r.mean_convergence
        r.max_convergence r.churn_control r.restarts r.residual_entries
        (List.length r.violations))
    report.rows;
  List.iter
    (fun r ->
      if r.violations <> [] then begin
        Format.fprintf ppf "@.%s oracle violations:@." r.protocol;
        List.iter (fun v -> Format.fprintf ppf "  %a@." Oracle.pp_violation v) r.violations
      end)
    report.rows
