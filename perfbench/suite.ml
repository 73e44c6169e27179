module W = Pim_exp.Workload
module Stack = Pim_exp.Stack
module Chaos = Pim_exp.Chaos
module Topology = Pim_graph.Topology
module Transit_stub = Pim_graph.Transit_stub

type outcome = { fingerprint : string; problems : int; counts : Layers.counts list }

type traced = {
  values : Layers.values;
  counts : Layers.counts list;
  total_s : float;
  mirrored_s : float;
  accounted_s : float;
}

type t = {
  name : string;
  entry : int -> outcome;
  setup : int -> unit;
  trace : int -> traced;
}

let pick seeds n = seeds.(abs (n mod Array.length seeds))

let value values name = Option.value ~default:0. (List.assoc_opt name values)

(* Sum layer tables name by name, keeping first-seen order. *)
let sum_values tables =
  let names =
    List.fold_left
      (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
      [] (List.concat tables)
    |> List.rev
  in
  List.map (fun k -> (k, List.fold_left (fun acc table -> acc +. value table k) 0. tables)) names

let zap ~name ~seeds (spec : W.spec) protocols =
  let spec_for n protocol = { spec with W.seed = pick seeds n; protocol } in
  let entry n =
    let reports = List.map (fun p -> W.run (spec_for n p)) protocols in
    {
      fingerprint =
        String.concat "\n"
          (List.map (fun r -> Pim_util.Json.to_string (W.report_to_json r)) reports);
      problems =
        List.fold_left
          (fun acc (r : W.report) -> List.fold_left (fun a (_, k) -> a + k) acc r.W.oracle)
          0 reports;
      counts = List.map Layers.report_counts reports;
    }
  in
  let setup n = List.iter (fun p -> Layers.zap_setup (spec_for n p)) protocols in
  let trace n =
    (* The RIB build happens inside each deployment; time one more on its
       own, before the replays, and charge it once per deployment that
       builds one. *)
    let topo = (Layers.zap_topology (spec_for n (List.hd protocols))).Transit_stub.topo in
    let cost, _ = Layers.static_probe topo in
    let replays =
      List.map
        (fun p ->
          Gc.full_major ();
          Layers.zap_replay (spec_for n p))
        protocols
    in
    let creates = float_of_int (List.length (List.filter Layers.uses_static protocols)) in
    let total_s =
      List.fold_left (fun acc (r : Layers.replay) -> acc +. r.Layers.total_s) 0. replays
    in
    {
      values =
        sum_values (List.map (fun (r : Layers.replay) -> r.Layers.layers) replays)
        @ [
            ("static.create_s", creates *. cost.Probe.wall_s);
            ("static.create_alloc_mb", creates *. cost.Probe.alloc_mb);
            ("static.dijkstras", creates *. float_of_int (Topology.n_nodes topo));
          ];
      counts = List.map (fun (r : Layers.replay) -> r.Layers.counts) replays;
      total_s;
      mirrored_s = total_s;
      accounted_s =
        List.fold_left (fun acc (r : Layers.replay) -> acc +. r.Layers.accounted_s) 0. replays;
    }
  in
  { name; entry; setup; trace }

let chaos ~name ~seeds ~nodes =
  let run n =
    Chaos.run ~topology:`Transit_stub ~nodes ~protocols:[ "PIM-SM" ] ~seed:(pick seeds n) ()
  in
  let entry n =
    let r = run n in
    {
      fingerprint = Format.asprintf "%a" Chaos.pp_report r;
      problems = Chaos.total_violations r;
      counts = [];
    }
  in
  let setup n = Layers.chaos_setup ~nodes ~seed:(pick seeds n) in
  (* Chaos.run builds its network inside, so only its wall time is seen
     directly; the RIB's share is one isolated create and refresh on the
     same topology, times the link notifications the returned schedule
     implies. *)
  let trace n =
    let ts, c_topo =
      Probe.measure (fun () ->
          Layers.chaos_topology ~nodes ~prng:(Pim_util.Prng.create (pick seeds n)))
    in
    let topo = ts.Transit_stub.topo in
    let cost, refresh_s = Layers.static_probe ~refreshes:3 topo in
    Gc.full_major ();
    let r, c_run = Probe.measure (fun () -> run n) in
    let changes = Layers.link_changes topo r.Chaos.schedule in
    let f = float_of_int in
    {
      values =
        [
          ("transit_stub.generate_s", c_topo.Probe.wall_s);
          ("static.create_s", cost.Probe.wall_s);
          ("static.create_alloc_mb", cost.Probe.alloc_mb);
          ("static.dijkstras", f (Topology.n_nodes topo * (1 + changes)));
          ("static.refresh_s", refresh_s);
          ("static.link_changes", f changes);
          ("static.recompute_s", refresh_s *. f changes);
          ("oracle.problems", f (Chaos.total_violations r));
        ];
      counts = [];
      total_s = c_run.Probe.wall_s;
      mirrored_s = 0.;
      accounted_s = 0.;
    }
  in
  { name; entry; setup; trace }

let both ~name a b =
  let entry n =
    let x = a.entry n in
    let y = b.entry n in
    {
      fingerprint = x.fingerprint ^ "\n" ^ y.fingerprint;
      problems = x.problems + y.problems;
      counts = x.counts @ y.counts;
    }
  in
  let setup n =
    a.setup n;
    b.setup n
  in
  let trace n =
    let x = a.trace n in
    Gc.full_major ();
    let y = b.trace n in
    {
      values = sum_values [ x.values; y.values ];
      counts = x.counts @ y.counts;
      total_s = x.total_s +. y.total_s;
      mirrored_s = x.mirrored_s +. y.mirrored_s;
      accounted_s = x.accounted_s +. y.accounted_s;
    }
  in
  { name; entry; setup; trace }

let zap_spec ~nodes ~groups ~scale ~duration =
  { (W.default_spec W.Zap) with W.nodes; groups; scale; duration }

(* Simulator seeds of the zap parts: 1994 and those of 1..48 on which
   all three are oracle-clean (perfbench/vet_seeds.sh).  The rest are
   known failures of the simulator, not of the benchmark: zap-2000n
   reports stale-oif problems at 3, 12, 30, 31, 33, 43 and 46, and
   zap-200n at 34 and 36. *)
let zap_seeds =
  [|
    1994; 1; 2; 4; 5; 6; 7; 8; 9; 10; 11; 13; 14; 15; 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26;
    27; 28; 29; 32; 35; 37; 38; 39; 40; 41; 42; 44; 45; 47; 48;
  |]

(* Chaos seeds whose fault schedule implies 16 link notifications, as
   1994's does, and which are oracle-clean.  Each notification reruns all
   the RIB's Dijkstras, so the count sets most of a run's cost; a fixed
   count keeps seeds comparable.  Seeds 142, 143, 146, 201, 269 and 345
   have 16 too but end with oracle violations. *)
let chaos_seeds =
  [|
    1994; 2; 11; 17; 19; 23; 28; 33; 37; 102; 105; 124; 129; 148; 164; 165; 176; 196; 214; 217;
    218; 227; 236; 238; 246; 263; 287; 290; 302; 305; 311; 326; 330; 349; 359; 362; 364; 365; 366;
    372;
  |]

(* Two workloads, each a pair of runs that load one side of the
   simulator: the unicast RIB (build at 2000 routers, recompute under
   faults at 500) or the multicast path (PIM-SM at 200 routers, the
   other protocols at 100).  Two workloads rather than four let each
   benchmark run measure for longer, which averages out more of the
   host-load swings wall time shows on a shared machine. *)
let workloads =
  [
    both ~name:"rib"
      (zap ~name:"zap-2000n" ~seeds:zap_seeds
         (zap_spec ~nodes:2000 ~groups:32 ~scale:300 ~duration:20.)
         [ Stack.Pim_sm ])
      (chaos ~name:"chaos-500n-pimsm" ~seeds:chaos_seeds ~nodes:500);
    both ~name:"multicast"
      (zap ~name:"zap-200n" ~seeds:zap_seeds
         (zap_spec ~nodes:200 ~groups:32 ~scale:2000 ~duration:60.)
         [ Stack.Pim_sm ])
      (zap ~name:"zap-100n-baselines" ~seeds:zap_seeds
         (zap_spec ~nodes:100 ~groups:16 ~scale:200 ~duration:60.)
         [ Stack.Pim_dm; Stack.Cbt; Stack.Mospf ]);
  ]

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB"); ("alloc_mb", "MB") ]

let per_layer =
  [
    ("transit_stub.generate_s", "s");
    ("workload.generate_s", "s");
    ("workload.events", "count");
    ("static.create_s", "s");
    ("static.create_alloc_mb", "MB");
    ("static.dijkstras", "count");
    ("static.refresh_s", "s");
    ("static.link_changes", "count");
    ("static.recompute_s", "s");
    ("stack.create_many_s", "s");
    ("stack.create_many_alloc_mb", "MB");
    ("router.handle_s", "s");
    ("router.handle_calls", "count");
    ("router.handle_ns", "ns");
    ("router.pim_sm.handle_s", "s");
    ("router.pim_dm.handle_s", "s");
    ("router.cbt.handle_s", "s");
    ("router.mospf.handle_s", "s");
    ("stack.join_s", "s");
    ("stack.joins", "count");
    ("stack.leave_s", "s");
    ("stack.leaves", "count");
    ("stack.send_s", "s");
    ("stack.sends", "count");
    ("engine.run_s", "s");
    ("engine.run_alloc_mb", "MB");
    ("engine_net.self_s", "s");
    ("engine.pending_end", "count");
    ("net.offered", "count");
    ("net.traversals", "count");
    ("net.dropped", "count");
    ("fwd.entries_end", "count");
    ("router.spt_switches", "count");
    ("oracle.check_s", "s");
    ("oracle.problems", "count");
    ("trace.wall_s", "s");
    ("trace.overhead_frac", "ratio");
    ("trace.accounted_frac", "ratio");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : int;
}

let median_or_zero = function [] -> 0. | xs -> Probe.median xs

(* The entry-point repetitions both loops share: time one run, and fail
   it on an exception, an oracle problem, or a report whose bytes differ
   from the first repetition's. *)
type entries = {
  w : t;
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable walls : float list;
  mutable allocs : float list;
  mutable reference : outcome option;
}

let fail e fmt =
  e.failed <- e.failed + 1;
  Printf.eprintf ("%s (seed %d): " ^^ fmt ^^ "\n%!") e.w.name e.seed

let entry_rep e =
  e.attempted <- e.attempted + 1;
  Gc.full_major ();
  match Probe.measure (fun () -> e.w.entry e.seed) with
  | exception exn -> fail e "entry point raised %s" (Printexc.to_string exn)
  | out, cost ->
    Printf.eprintf "# %s: entry %.4f s\n%!" e.w.name cost.Probe.wall_s;
    e.walls <- cost.Probe.wall_s :: e.walls;
    e.allocs <- cost.Probe.alloc_mb :: e.allocs;
    let reference = Option.value ~default:out e.reference in
    e.reference <- Some reference;
    if out.problems > 0 then fail e "oracle reports %d problem(s)" out.problems
    else if not (String.equal out.fingerprint reference.fingerprint) then
      fail e "report differs from the first repetition's"

let entries w seed =
  { w; seed; attempted = 0; failed = 0; walls = []; allocs = []; reference = None }

let elapsed_since t0 = Probe.seconds (Probe.now_ns () - t0)

let run_untraced w ~seed ~seconds =
  let t0 = Probe.now_ns () in
  let e = entries w seed in
  entry_rep e;
  (* The first repetition ran in a fresh process. *)
  let peak = Probe.peak_heap_mb () in
  let setups = ref [] in
  while e.attempted < 3 || List.length !setups < 3 || elapsed_since t0 < seconds do
    Gc.full_major ();
    let (), c = Probe.measure (fun () -> w.setup e.seed) in
    Printf.eprintf "# %s: setup %.4f s\n%!" w.name c.Probe.wall_s;
    setups := c.Probe.wall_s :: !setups;
    entry_rep e
  done;
  {
    correct = e.failed = 0;
    attempted = e.attempted;
    failed = e.failed;
    metrics =
      [
        ("wall_s", median_or_zero e.walls);
        ("setup_s", median_or_zero !setups);
        ("peak_heap_mb", peak);
        ("alloc_mb", median_or_zero e.allocs);
      ];
    samples = List.length e.walls;
  }

let same_counts (a : Layers.counts) (b : Layers.counts) =
  a.Layers.node_joins = b.Layers.node_joins
  && a.Layers.traversals = b.Layers.traversals
  && a.Layers.entries_end = b.Layers.entries_end

let run_traced w ~seed ~seconds =
  let t0 = Probe.now_ns () in
  let e = entries w seed in
  let traces = ref [] in
  let trace_rep () =
    e.attempted <- e.attempted + 1;
    Gc.full_major ();
    let tr = w.trace e.seed in
    traces := tr :: !traces;
    let problems = int_of_float (value tr.values "oracle.problems") in
    if problems > 0 then fail e "traced run: oracle reports %d problem(s)" problems;
    (match e.reference with
    | Some r when not (List.equal same_counts r.counts tr.counts) ->
      fail e "traced run's work counts differ from the untraced report's"
    | Some _ | None -> ());
    if tr.mirrored_s > 0. then begin
      let share = tr.accounted_s /. tr.mirrored_s in
      if share < 0.95 || share > 1.005 then
        fail e "named layers account for %.1f%% of the traced wall time" (100. *. share)
    end
  in
  while e.attempted < 4 || elapsed_since t0 < seconds do
    entry_rep e;
    trace_rep ()
  done;
  let median_of f = Probe.median (List.map f !traces) in
  let traced_wall = median_of (fun tr -> tr.total_s) in
  let derived =
    [
      ( "router.handle_ns",
        median_of (fun tr ->
            let calls = value tr.values "router.handle_calls" in
            if calls > 0. then 1e9 *. value tr.values "router.handle_s" /. calls else 0.) );
      ("trace.wall_s", traced_wall);
      ("trace.overhead_frac", (traced_wall /. median_or_zero e.walls) -. 1.);
      ( "trace.accounted_frac",
        median_of (fun tr -> if tr.mirrored_s > 0. then tr.accounted_s /. tr.mirrored_s else 0.) );
    ]
  in
  {
    correct = e.failed = 0;
    attempted = e.attempted;
    failed = e.failed;
    metrics =
      List.map
        (fun (name, _) ->
          ( name,
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> median_of (fun tr -> value tr.values name) ))
        per_layer;
    samples = List.length !traces;
  }
