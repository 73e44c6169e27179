module Addr = Pim_net.Addr
module Prng = Pim_util.Prng
module Counters = Pim_sim.Counters
module Fwd = Pim_mcast.Fwd

type row = {
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

(* 3x3 grid: source behind 0, receiver behind 8, primary RP in the
   center (4), alternate RP at 2.  Crashing node 4 forces the receiver to
   rendezvous through the alternate. *)
let grid = Dsl.Grid { rows = 3; cols = 3 }

let group = 9

let source = 0

let receiver = 8

let static_rps = [ 4; 2 ]

let crash_at = 30.

let stop_at = 75.

let config ~rp_timeout =
  {
    Stack.fast with
    sm =
      {
        Pim_core.Config.fast with
        rp_reach_period = 1.5;
        rp_timeout;
        sweep_interval = 0.5;
        (* Receivers stay on the RP tree: delivery then depends on the RP,
           which is what this experiment stresses. *)
        spt_policy = Pim_core.Config.Never;
      };
  }

(* The run both sweeps share: the receiver joins, the first of [rp]
   crashes at [crash_at], and the source streams until [stop_at], each
   packet half a second after the previous one's slot plus a seeded
   jitter, so the stream's phase relative to the crash and the timers
   varies with the seed (a jittered time ties with no timer).  With
   [rp_election] the mapping is advertised by Stack's live BSR election
   instead of configured. *)
let plan ~name ~prng ~rp_election rp =
  let send = Dsl.Send { from = Dsl.Source; count = 1; interval = 0.; host = 1 } in
  let rec sends t0 =
    if t0 >= stop_at then []
    else
      let t = t0 +. Prng.float prng 0.25 in
      Dsl.At (t, send) :: sends (t0 +. 0.5)
  in
  {
    Dsl.empty with
    name;
    topology = grid;
    protocol = Some Stack.Pim_sm;
    group;
    rp;
    rp_election;
    members_decl = [ receiver ];
    source_decl = Some source;
    steps =
      (Dsl.Join [ Dsl.Members ]
       :: Dsl.At (crash_at, Dsl.Fail_node { node = Dsl.Rp; down_for = None })
       :: sends 10.)
      @ [ Dsl.Advance (stop_at +. 10.); Dsl.Mark "end" ];
  }

(* Staged: what the row needs of the program is read before the run, so
   the program's steps can die while it runs. *)
let row ~strategy ~rp_timeout (p : Dsl.program) =
  let crashed = List.hd p.Dsl.rp in
  let budget =
    rp_timeout +. if p.Dsl.rp_election then Pim_core.Bsr.(failover_budget fast) else 0.
  in
  (* "(*,G)" entries still pointing at the dead RP are orphans the
     failover/soft-state machinery failed to re-home or expire. *)
  let orphan (e : Fwd.entry) = Fwd.is_star e && e.Fwd.rp = Some (Addr.router crashed) in
  fun (o : Dsl.outcome) ->
    let times = Array.to_list o.Dsl.arrivals in
    let count f = List.length (List.filter f times) in
    (* Largest inter-arrival gap once delivery is established. *)
    let rec max_gap acc = function
      | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
      | _ -> acc
    in
    let total = Counters.total o.Dsl.counters in
    {
      strategy;
      gap = max_gap 0. (List.filter (fun t -> t > 15.) times);
      budget;
      delivered_before = count (fun t -> t <= crash_at);
      delivered_after = count (fun t -> t > crash_at);
      failovers = total Rp_failovers;
      elections = total Elections_won;
      mapping_changes = total Mapping_changes;
      control = (Dsl.find_mark o "end").Dsl.control;
      orphaned_entries =
        List.init o.Dsl.nodes Fun.id
        |> List.filter (fun u -> u <> crashed)
        |> List.concat_map o.Dsl.fib_entries
        |> List.filter orphan |> List.length;
    }

let replay ~strategy ~rp_timeout p =
  let row = row ~strategy ~rp_timeout p in
  row (Dsl.run ~config:(config ~rp_timeout) p)

let plans ?(timeouts = [ 5.; 10.; 20. ]) ~seed () =
  (* One independent stream per row: adding draws to one timeout's run
     cannot perturb another's. *)
  let prng = Prng.create seed in
  List.map
    (fun rp_timeout ->
      let prng = Prng.split prng in
      let name = Printf.sprintf "failover-%g" rp_timeout in
      (rp_timeout, plan ~name ~prng ~rp_election:false static_rps))
    timeouts

let run ?timeouts ~seed () =
  List.map
    (fun (rp_timeout, p) -> replay ~strategy:"static" ~rp_timeout p)
    (plans ?timeouts ~seed ())

let all_strategies = [ "static"; "random"; "center"; "locality"; "vns"; "bsr" ]

let strategy_plans ?(strategies = all_strategies) ~seed () =
  let prng = Prng.create seed in
  (* One split stream per strategy, keyed by the canonical list order, so
     selecting a subset never perturbs another strategy's draw. *)
  let streams = List.map (fun s -> (s, Prng.split prng)) all_strategies in
  let unknown s = invalid_arg (Printf.sprintf "Failover.run_strategies: unknown strategy %S" s) in
  List.map
    (fun strategy ->
      let prng = match List.assoc_opt strategy streams with Some p -> p | None -> unknown strategy in
      let rp =
        match strategy with
        | "static" -> static_rps
        | s -> (
          match
            Stack.place_rps ~topo:(Pim_graph.Classic.grid 3 3) ~group:(Pim_net.Group.of_index group)
              ~endpoints:[ source; receiver ] ~seed s
          with
          | Some rps -> rps
          | None -> unknown s)
      in
      let rp_election = String.equal strategy "bsr" in
      (strategy, plan ~name:("failover-" ^ strategy) ~prng ~rp_election rp))
    strategies

let run_strategies ?strategies ~seed () =
  List.map
    (fun (strategy, p) -> replay ~strategy ~rp_timeout:5. p)
    (strategy_plans ?strategies ~seed ())

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
      Format.fprintf ppf "%11.1f  %12.2f  %6d  %5d  %9d@." r.budget r.gap r.delivered_before
        r.delivered_after r.failovers)
    rows
