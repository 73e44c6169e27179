module Fault = Pim_sim.Fault
module Prng = Pim_util.Prng
module Topology = Pim_graph.Topology
module Random_graph = Pim_graph.Random_graph
module Transit_stub = Pim_graph.Transit_stub

let group = 7

(* The protocols the harness compares, in report order (DVMRP shares
   PIM-DM's dense-mode machinery, so PIM-DM stands for both). *)
let compared = Stack.[ Pim_sm; Pim_dm; Cbt; Mospf ]

(* Timeline (virtual seconds; all protocols use their fast configs):
   joins at 0, steady 2 pkt/s stream from [stream_start], faults injected
   in [fault_start, fault_end) with every outage healed by [fault_end],
   then the protocol's one-hop {!Stack.settle_hint}, then the oracle
   checkpoint: probe burst (loop freedom + reachability on the wire) and
   state checks.  Finally all members leave and after the protocol's
   {!Stack.drain_hint} any state above its residual floor is orphaned. *)
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
  violations : Pim_sim.Oracle.violation list;
}

type report = {
  seed : int;
  schedule : Fault.event list;
  rows : row list;
}

(* {1 The timeline as a program} *)

let plan ?(nodes = 30) ?(degree = 4.) ?(receivers = 5) ?(events = 8) ?(fault_window = 40.)
    ?(mean_outage = 8.) ?(topology = `Random) ?(fault = `Random) ?(rp_strategy = "static") ~seed
    () =
  if receivers < 1 then invalid_arg "Chaos.run: need at least one receiver";
  if events < 0 then invalid_arg "Chaos.run: events must be >= 0";
  let prng = Prng.create seed in
  let spec, topo, members, delay_bound =
    match topology with
    | `Random ->
      let topo = Random_graph.generate ~prng ~nodes ~degree () in
      ( Dsl.Random { nodes; degree; seed },
        topo,
        Random_graph.pick_members ~prng ~nodes ~count:receivers,
        default_delay_bound )
    | `Transit_stub ->
      let transit, stubs_per_transit, stub_size = Transit_stub.sizes ~nodes in
      let candidates = transit * stubs_per_transit * Int.max 1 (stub_size - 1) in
      if receivers > candidates then
        invalid_arg "Chaos.run: more receivers than stub routers";
      let ts = Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~prng () in
      (* Members live behind stub gateways, as wide-area receivers do. *)
      let rec draw ms =
        if List.length ms = receivers then List.rev ms
        else
          let m = Transit_stub.random_stub_member ts ~prng in
          draw (if List.mem m ms then ms else m :: ms)
      in
      (* Worst one-way delay with the generator's default link delays:
         half the backbone ring (5 s/hop — chords only shorten it), an
         access link (3 s) and a stub spanning tree (1 s/hop) at each
         end.  Data crosses it twice (source up the RP tree, then down
         to a member), plus slack for encapsulation hops. *)
      let one_way =
        (5. *. float_of_int ((transit / 2) + 1))
        +. (2. *. (3. +. float_of_int stub_size))
      in
      ( Dsl.Transit_stub { nodes; seed },
        ts.Transit_stub.topo,
        draw [],
        (2. *. one_way) +. 10. )
  in
  let nodes = Topology.n_nodes topo in
  let source =
    Option.value ~default:0 (List.find_opt (fun u -> not (List.mem u members)) (List.init nodes Fun.id))
  in
  let rp = List.hd members in
  let endpoints = source :: members in
  (* RP placement per [rp_strategy].  Endpoints are excluded from every
     computed pool so rp-crash fault targets never hit the protected
     source or receivers; the legacy "static" strategy keeps the first
     member as RP except in rp-crash runs, where it falls back to the
     first two non-endpoint routers. *)
  let rps =
    match (rp_strategy, fault) with
    | "static", `Random -> [ rp ]
    | "static", `Rp_crash ->
      List.init nodes Fun.id
      |> List.filter (fun u -> not (List.mem u endpoints))
      |> List.filteri (fun i _ -> i < 2)
    | s, _ -> (
      match Stack.place_rps ~topo ~group:(Pim_net.Group.of_index group) ~endpoints ~seed s with
      | Some rps -> rps
      | None -> invalid_arg (Printf.sprintf "Chaos.run: unknown RP strategy %S" s))
  in
  let rp_election = String.equal rp_strategy "bsr" in
  let fault_end = fault_start +. fault_window in
  (* One schedule, decided before any protocol runs, replayed verbatim
     against each of them. *)
  let schedule =
    match fault with
    | `Random ->
      Fault.random_schedule ~prng:(Prng.split prng) ~topo ~start:fault_start ~until:fault_end
        ~protected:endpoints ~events ~mean_outage ()
    | `Rp_crash ->
      Fault.targeted_schedule ~prng:(Prng.split prng)
        ~targets:(List.sort_uniq Int.compare rps)
        ~start:fault_start ~until:fault_end ~events ~mean_outage ()
  in
  let node u = Dsl.Node u in
  let on_link lid step =
    let e = (Topology.link topo lid).Topology.ends in
    step (node e.(0)) (node e.(1))
  in
  let step_of : Fault.action -> Dsl.step = function
    | Fault.Link_down lid -> on_link lid (fun a b -> Dsl.Fail_link { a; b; down_for = None })
    | Fault.Link_up lid -> on_link lid (fun a b -> Dsl.Heal_link (a, b))
    | Fault.Link_flap (lid, d) -> on_link lid (fun a b -> Dsl.Fail_link { a; b; down_for = Some d })
    | Fault.Node_crash (u, d) -> Dsl.Fail_node { node = node u; down_for = Some d }
    | Fault.Partition us -> Dsl.Partition (List.map node us)
    | Fault.Heal -> Dsl.Heal
    | Fault.Loss_burst (rate, duration) -> Dsl.Loss { rate; duration }
    | Fault.Jitter_burst (amplitude, duration) -> Dsl.Jitter { amplitude; duration }
    | Fault.Drop_next lid -> on_link lid (fun a b -> Dsl.Drop_next (a, b))
    | Fault.Duplicate_next lid -> on_link lid (fun a b -> Dsl.Dup_next (a, b))
    | Fault.Delay_next (lid, by) -> on_link lid (fun a b -> Dsl.Delay_next { a; b; by })
  in
  (* Steps in the order the timeline is scheduled, which decides ties
     between events at one instant: stream, marks, faults, checkpoint,
     burst, end checks and leaves. *)
  let program protocol : Dsl.program =
    let rp_election = rp_election && protocol = Stack.Pim_sm in
    let checkpoint_start = fault_end +. Stack.settle_hint ~rp_election ~hops:1 protocol in
    let n_stream =
      int_of_float (Float.round ((checkpoint_start -. stream_start) /. stream_interval))
    in
    let checkpoint_end =
      checkpoint_start +. (burst_spacing *. float_of_int burst_probes) +. delay_bound
    in
    let at t step = Dsl.At (t, step) in
    {
      name = Printf.sprintf "chaos-seed%d-%s" seed (Stack.to_string protocol);
      topology = spec;
      protocol = Some protocol;
      group;
      (* CBT keeps its legacy member-homed core. *)
      rp = (match protocol with Stack.Pim_sm -> rps | Stack.Cbt -> [ rp ] | _ -> []);
      rp_election;
      members_decl = members;
      source_decl = Some source;
      switchover_fallback = None;
      steps =
        List.map (fun m -> Dsl.Join [ node m ]) members
        @ [
            at stream_start
              (Dsl.Send { from = node source; count = n_stream; interval = stream_interval });
            at fault_start (Dsl.Mark "fault-start");
            at fault_end (Dsl.Mark "fault-end");
          ]
        @ List.map (fun (e : Fault.event) -> at e.Fault.at (step_of e.Fault.action)) schedule
        @ [
            at checkpoint_start Dsl.Checkpoint;
            at (checkpoint_start +. 0.01)
              (Dsl.Send { from = node source; count = burst_probes; interval = burst_spacing });
            at checkpoint_end Dsl.Assert_no_loops;
            at checkpoint_end Dsl.Assert_reachable;
          ]
        @ List.map (fun m -> at checkpoint_end (Dsl.Leave [ node m ])) members
        @ [
            Dsl.Advance (checkpoint_end +. Stack.drain_hint ~topo ~source protocol);
            Dsl.Assert_drained;
            Dsl.Mark "end";
          ];
    }
  in
  (schedule, topo, program)

(* {1 Reading a row off a run} *)

let row (p : Dsl.program) (o : Dsl.outcome) =
  let timed = List.filter_map (function Dsl.At (t, s) -> Some (t, s) | _ -> None) p.Dsl.steps in
  let times f = List.filter_map (fun (t, s) -> if f s then Some t else None) timed in
  let counts = List.filter_map (function _, Dsl.Send { count; _ } -> Some count | _ -> None) timed in
  let stream_start = List.hd (times (function Dsl.Send _ -> true | _ -> false)) in
  let checkpoint_start = List.hd (times (function Dsl.Checkpoint -> true | _ -> false)) in
  let mark label = List.find (fun (m : Dsl.mark) -> String.equal m.Dsl.label label) o.Dsl.marks in
  let members = p.Dsl.members_decl in
  (* Send times of the packets [got] the member(s) it asks about. *)
  let sent got =
    List.filter_map
      (fun (pr : Dsl.probe) -> if got pr.Dsl.received_by then Some pr.Dsl.sent_at else None)
      o.Dsl.probes
    |> List.sort Float.compare
  in
  (* Convergence: for each fault onset, the earliest send at-or-after it
     that every member received. *)
  let full = sent (fun ms -> List.length ms = List.length members) in
  let convergences =
    times (function Dsl.Fail_link _ | Dsl.Fail_node _ | Dsl.Partition _ -> true | _ -> false)
    |> List.map (fun f ->
           match List.find_opt (fun tm -> tm >= f) full with
           | Some tm -> tm -. f
           | None -> (mark "end").Dsl.at -. f)
  in
  (* Worst silent stretch any receiver saw, in send-timestamp terms. *)
  let rec gaps prev = function
    | [] -> checkpoint_start -. prev
    | x :: rest -> Float.max (x -. prev) (gaps x rest)
  in
  {
    protocol = o.Dsl.protocol;
    deliveries = o.Dsl.deliveries - o.Dsl.duplicates;
    expected = List.fold_left ( + ) 0 counts * List.length members;
    dup_deliveries = o.Dsl.duplicates;
    max_gap =
      List.fold_left
        (fun acc m -> Float.max acc (gaps stream_start (sent (List.mem m))))
        0. members;
    mean_convergence =
      (match convergences with
      | [] -> 0.
      | cs -> List.fold_left ( +. ) 0. cs /. float_of_int (List.length cs));
    max_convergence = List.fold_left Float.max 0. convergences;
    churn_control = (mark "fault-end").Dsl.control - (mark "fault-start").Dsl.control;
    total_control = (mark "end").Dsl.control;
    restarts =
      List.length (times (function Dsl.Fail_node { down_for = Some _; _ } -> true | _ -> false));
    residual_entries = o.Dsl.residual;
    violations = o.Dsl.violations;
  }

(* {1 The experiment} *)

let run ?nodes ?degree ?receivers ?events ?fault_window ?mean_outage ?topology ?fault
    ?rp_strategy ?protocols ~seed () =
  let schedule, topo, program =
    plan ?nodes ?degree ?receivers ?events ?fault_window ?mean_outage ?topology ?fault
      ?rp_strategy ~seed ()
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
    | None, (None | Some `Random) -> true
    | None, Some `Rp_crash -> protocol = Stack.Pim_sm
  in
  let rows =
    List.filter wanted compared
    |> List.map (fun protocol ->
           let p = program protocol in
           row p (Dsl.run ~topo p))
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
        List.iter (fun v -> Format.fprintf ppf "  %a@." Pim_sim.Oracle.pp_violation v) r.violations
      end)
    report.rows
