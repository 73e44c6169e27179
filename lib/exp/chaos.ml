module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Fault = Pim_sim.Fault
module Oracle = Pim_sim.Oracle
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Addr = Pim_net.Addr
module Topology = Pim_graph.Topology
module Random_graph = Pim_graph.Random_graph
module Mdata = Pim_mcast.Mdata

let group = Group.of_index 7

(* The protocols the harness compares, in report order (DVMRP shares
   PIM-DM's dense-mode machinery, so PIM-DM stands for both). *)
let compared = Stack.[ Pim_sm; Pim_dm; Cbt; Mospf ]

(* Timeline (virtual seconds; all protocols use their fast configs):
   joins at 0, steady 2 pkt/s stream from [stream_start], faults injected
   in [fault_start, fault_end) with every outage healed by [fault_end],
   then the protocol's one-hop {!Stack.settle_hint}, then the oracle
   checkpoint: probe burst (loop freedom + reachability on the wire) and
   state checks.  Finally all members leave and after [drain_wait] any
   state above the protocol's residual floor is orphaned. *)
let stream_start = 10.0

let stream_interval = 0.5

let fault_start = 20.0

let burst_probes = 5

let burst_spacing = 0.4

(* Probe delivery bound for the default 30-node random topologies (unit
   link delays); wide-area transit-stub runs compute their own bound
   from the topology's link delays. *)
let default_delay_bound = 10.0

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

(* Soft state tears down serially, so each protocol needs its own wait
   after every member left before leftover state counts as orphaned. *)
let drain_wait ~topo ~source = function
  | Stack.Pim_sm ->
    (* The RP's entry lingers past the last data, then each hop toward
       the source keeps refreshing its upstream until its own oif times
       out — one oif holdtime per hop, bounded by the source's
       eccentricity (links cost the same both ways). *)
    let c = Pim_core.Config.fast in
    let tree = Pim_graph.Spt.single_source topo source in
    let ecc =
      List.init (Topology.n_nodes topo) (fun u -> Pim_graph.Spt.distance tree u)
      |> List.fold_left (fun acc d -> match d with Some d -> max acc d | None -> acc) 0
    in
    c.Pim_core.Config.entry_linger
    +. (float_of_int (ecc + 2) *. c.Pim_core.Config.oif_holdtime)
    +. (3. *. c.Pim_core.Config.sweep_interval)
  | Stack.Pim_dm | Stack.Dvmrp ->
    let c = Pim_dense.Router.fast_config in
    c.Pim_dense.Router.entry_linger +. (3. *. c.Pim_dense.Router.sweep_interval)
  | Stack.Cbt ->
    let c = Pim_cbt.Router.fast_config in
    c.Pim_cbt.Router.child_timeout +. (4. *. c.Pim_cbt.Router.echo_interval)
  | Stack.Mospf -> 10.

(* MOSPF floods membership, so every live router must know every live
   member — the whole premise of its design.  What a router knows is the
   member list of its one mroute line (format documented in stack.mli). *)
let membership_sync (s : Stack.t) ~net ~members () =
  let known u =
    match s.Stack.mroute u with
    | [ line ] -> (
      match String.index_opt line '{' with
      | Some i ->
        String.sub line (i + 1) (String.length line - i - 2)
        |> String.split_on_char ',' |> List.filter_map int_of_string_opt
      | None -> [])
    | _ -> []
  in
  List.init (Topology.n_nodes (Net.topo net)) Fun.id
  |> List.filter (Net.node_up net)
  |> List.concat_map (fun u ->
         let k = known u in
         List.filter (fun m -> Net.node_up net m && not (List.mem m k)) members
         |> List.map (fun m ->
                Printf.sprintf "router %d does not know member %d of %s" u m
                  (Group.to_string group)))
  |> List.rev

let run_protocol ~topo ~schedule ~fault_end ~members ~source ~delay_bound ~placement
    ~rp_election ~cbsr_forbidden protocol =
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let metrics = Metrics.attach net in
  let s =
    snd
      (List.hd
         (Stack.create_many ~placement ~rp_election ~cbsr_forbidden ~groups:[ group ] ~net
            protocol))
  in
  let state_checks =
    match protocol with
    | Stack.Mospf ->
      s.Stack.state_checks @ [ ("membership-sync", membership_sync s ~net ~members) ]
    | Stack.Pim_sm | Stack.Pim_dm | Stack.Dvmrp | Stack.Cbt -> s.Stack.state_checks
  in
  let send () = s.Stack.send_from source in
  let drain_wait = drain_wait ~topo ~source protocol in
  (* While faults are active, an in-flight packet crossing an RPF change
     can legitimately traverse one link an extra time; only sustained
     duplication there means a loop.  The quiet checkpoint below drops
     back to the protocol's strict bound. *)
  let oracle =
    Oracle.create ~max_copies:(s.Stack.max_copies + 2) net ~probe_id:(fun pkt ->
        match pkt.Pim_net.Packet.payload with Mdata.Data i -> Some i.Mdata.seq | _ -> None)
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
      s.Stack.join m;
      s.Stack.on_data m (fun pkt ->
          match pkt.Pim_net.Packet.payload with
          | Mdata.Data { Mdata.seq; sent_at } ->
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
            end
          | _ -> ()))
    members;
  (* Steady stream up to the checkpoint, then the probe burst. *)
  let checkpoint_start = fault_end +. Stack.settle_hint ~rp_election ~hops:1 protocol in
  let n_stream =
    int_of_float (Float.round ((checkpoint_start -. stream_start) /. stream_interval))
  in
  for i = 0 to n_stream - 1 do
    ignore
      (Engine.schedule_at eng (stream_start +. (stream_interval *. float_of_int i)) send)
  done;
  (* Control-plane cost attributable to the churn itself. *)
  let ctl_start = ref 0 and ctl_end = ref 0 in
  ignore
    (Engine.schedule_at eng fault_start (fun () -> ctl_start := Metrics.control_traversals metrics));
  ignore
    (Engine.schedule_at eng fault_end (fun () -> ctl_end := Metrics.control_traversals metrics));
  ignore (Fault.install ~restart:s.Stack.restart net schedule);
  (* Checkpoint: fresh probe epoch so reconvergence-era duplicates (which
     are legitimate, e.g. SPT-switchover overlap) are not charged as
     loops; every burst probe must reach every member within the bound. *)
  ignore
    (Engine.schedule_at eng checkpoint_start (fun () ->
         Oracle.set_max_copies oracle s.Stack.max_copies;
         Oracle.reset_probes oracle));
  let burst_seqs = List.init burst_probes (fun k -> n_stream + k) in
  List.iteri
    (fun k _ ->
      ignore
        (Engine.schedule_at eng
           (checkpoint_start +. 0.01 +. (burst_spacing *. float_of_int k))
           send))
    burst_seqs;
  let checkpoint_end =
    checkpoint_start +. (burst_spacing *. float_of_int burst_probes) +. delay_bound
  in
  ignore
    (Engine.schedule_at eng checkpoint_end (fun () ->
         List.iter (fun (inv, f) -> Oracle.run_check oracle ~invariant:inv f) state_checks;
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
         List.iter s.Stack.leave members));
  let t_end = checkpoint_end +. drain_wait in
  Engine.run ~until:t_end eng;
  let residual = s.Stack.entries () in
  if residual > s.Stack.residual_floor then
    Oracle.record oracle ~invariant:"orphaned-state"
      (Printf.sprintf "%d state entries remain %.0fs after all members left (floor %d)"
         residual drain_wait s.Stack.residual_floor);
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
    protocol = Stack.to_string protocol;
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
  if receivers < 1 then invalid_arg "Chaos.run: need at least one receiver";
  if events < 0 then invalid_arg "Chaos.run: events must be >= 0";
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
  let computed spec =
    Pim_core.Placement.compute ~topo ~groups:[ (group, endpoints) ] ~forbidden:endpoints ~seed spec
    |> List.map (fun (g, rps) -> (g, List.filter_map Addr.router_index rps))
  in
  let placement =
    match rp_strategy with
    | "static" -> (
      match fault with
      | `Random -> [ (group, [ rp ]) ]
      | `Rp_crash ->
        let pool =
          List.init nodes Fun.id
          |> List.filter (fun u -> not (List.mem u endpoints))
          |> List.filteri (fun i _ -> i < 2)
        in
        [ (group, pool) ])
    | "bsr" -> computed (Pim_core.Placement.Centered 2)
    | s -> (
      match Pim_core.Placement.named s with
      | Some spec -> computed spec
      | None -> invalid_arg (Printf.sprintf "Chaos.run: unknown RP strategy %S" s))
  in
  let rp_nodes = List.concat_map snd placement |> List.sort_uniq Int.compare in
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
  (* Canonical report order: the fixed protocol list [compared] — the
     report row order is part of the byte-identical reproducibility
     contract.  [protocols] selects a subset (large-topology scale runs
     exercise one protocol at a time) without disturbing that order.
     RP-crash runs default to PIM-SM alone: only it consumes the RP
     placement under test. *)
  (* A typo in the filter must fail loudly, not silently run nothing. *)
  let known = List.map Stack.to_string compared in
  Option.iter
    (List.iter (fun p ->
         if not (List.exists (String.equal p) known) then
           invalid_arg
             (Printf.sprintf "Chaos.run: unknown protocol %S (expected one of %s)" p
                (String.concat ", " known))))
    protocols;
  let wanted protocol =
    match (protocols, fault) with
    | Some ps, _ -> List.exists (String.equal (Stack.to_string protocol)) ps
    | None, `Random -> true
    | None, `Rp_crash -> ( match protocol with Stack.Pim_sm -> true | _ -> false)
  in
  let rows =
    List.filter wanted compared
    |> List.map (fun protocol ->
           (* CBT keeps its legacy member-homed core.  Candidate BSRs sit
              off both the endpoints and the RP targets so the election
              substrate itself survives the targeted faults. *)
           let placement =
             match protocol with Stack.Cbt -> [ (group, [ rp ]) ] | _ -> placement
           in
           run_protocol ~topo ~schedule ~fault_end ~members ~source ~delay_bound ~placement
             ~rp_election:(String.equal rp_strategy "bsr") ~cbsr_forbidden:endpoints protocol)
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
