module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Event = Pim_sim.Event
module Prng = Pim_util.Prng
module Stats = Pim_util.Stats
module M = Pim_util.Metrics
module Json = Pim_util.Json
module Group = Pim_net.Group
module Topology = Pim_graph.Topology
module Transit_stub = Pim_graph.Transit_stub

type model = Zap | Flashcrowd | Zipfian | Diurnal

let models = [ Zap; Flashcrowd; Zipfian; Diurnal ]

let model_to_string = function
  | Zap -> "zap"
  | Flashcrowd -> "flashcrowd"
  | Zipfian -> "zipf"
  | Diurnal -> "diurnal"

let model_of_string s =
  match String.lowercase_ascii s with
  | "zap" -> Some Zap
  | "flashcrowd" | "flash-crowd" | "crowd" -> Some Flashcrowd
  | "zipf" | "zipfian" -> Some Zipfian
  | "diurnal" -> Some Diurnal
  | _ -> None

type rp_strategy = Single | Sharded of int | Elected of int

let rp_strategy_to_string = function
  | Single -> "single"
  | Sharded k -> Printf.sprintf "sharded:%d" k
  | Elected k -> Printf.sprintf "bsr:%d" k

let rp_strategy_of_string s =
  let base, k =
    match String.index_opt s ':' with
    | None -> (s, 4)
    | Some i -> (
      ( String.sub s 0 i,
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some k when k >= 1 -> k
        | _ -> -1 ))
  in
  if k < 1 then None
  else
    match String.lowercase_ascii base with
    | "single" -> Some Single
    | "sharded" | "multi" -> Some (Sharded k)
    | "bsr" | "elected" -> Some (Elected k)
    | _ -> None

type spec = {
  model : model;
  protocol : Stack.protocol;
  rp_strategy : rp_strategy;
  nodes : int;
  groups : int;
  scale : int;
  skew : float;
  duration : float;
  window : float;
  domains : int;
  seed : int;
}

let default_spec model =
  let base =
    {
      model;
      protocol = Stack.Pim_sm;
      rp_strategy = Sharded 4;
      nodes = 200;
      groups = 16;
      scale = 400;
      skew = 1.0;
      duration = 60.;
      window = 5.;
      domains = 1;
      seed = 1994;
    }
  in
  match model with
  | Flashcrowd -> { base with groups = 8; scale = 5_000 }
  | Diurnal -> { base with duration = 90. }
  | Zap | Zipfian -> base

(* {1 Schedule generation} *)

type action = Join | Leave

type sevent = {
  t : float;
  receiver : int;
  seq : int;
  group : int;
  node : Topology.node;
  action : action;
}

type schedule = {
  spec : spec;
  topology : Transit_stub.t;
  events : sevent array;
  sources : (int * Topology.node) array;
  rp_placement : (int * Topology.node list) list;
}

let compare_sevent a b =
  match Float.compare a.t b.t with
  | 0 -> (
    match Int.compare a.receiver b.receiver with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

let gen_topo spec prng =
  let transit, stubs_per_transit, stub_size = Transit_stub.sizes ~nodes:spec.nodes in
  Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~backbone_delay:0.5
    ~access_delay:0.5 ~prng ()

(* Zipf popularity over group indices: weight (i+1)^-skew.  Returns the
   cumulative weights; [zipf_pick] draws by inverse lookup (group counts
   are a few dozen, so the linear scan is moot). *)
let zipf_cum ~groups ~skew =
  let cum = Array.make (Int.max 1 groups) 0. in
  let acc = ref 0. in
  for i = 0 to groups - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) skew);
    cum.(i) <- !acc
  done;
  cum

let zipf_pick stream cum =
  let total = cum.(Array.length cum - 1) in
  let u = Prng.float stream total in
  let g = ref 0 in
  while cum.(!g) < u && !g < Array.length cum - 1 do
    incr g
  done;
  !g

(* Per-receiver event emitters.  Each receiver's whole timeline is a
   function of its own split stream (plus fixed global constants like the
   storm times), which is what makes generation domain-parallel without
   changing a byte of output. *)

type emit_state = { mutable acc : sevent list; mutable seq : int }

let emit st ~receiver ~node t group action =
  st.acc <- { t; receiver; seq = st.seq; group; node; action } :: st.acc;
  st.seq <- st.seq + 1

(* IPTV zapping: Zipf channel choice, exponential dwell, and correlated
   storms — at fixed times (every [storm_period], first at 10 s) a
   [storm_frac] share of the audience zaps within the same half second
   (an ad break ending across the popular channels). *)
let zap_events spec cum ~receiver ~node stream st =
  let mean_dwell = 12. and storm_period = 15. and storm_frac = 0.5 and zap_gap = 0.1 in
  let next_storm_after t =
    let k = Float.max 0. (Float.of_int (int_of_float (ceil ((t -. 10.) /. storm_period)))) in
    let s = 10. +. (storm_period *. k) in
    if s <= t then s +. storm_period else s
  in
  let t0 = Prng.float stream (Float.min 5. (spec.duration /. 6.)) in
  let c0 = zipf_pick stream cum in
  emit st ~receiver ~node t0 c0 Join;
  let t = ref t0 and c = ref c0 in
  let continue = ref true in
  while !continue do
    let dwell = 0.5 +. Prng.exponential stream mean_dwell in
    let s = next_storm_after !t in
    let zap_t =
      if s < !t +. dwell && s < spec.duration && Prng.float stream 1. < storm_frac then
        s +. Prng.float stream 0.5
      else !t +. dwell
    in
    if zap_t >= spec.duration then continue := false
    else begin
      emit st ~receiver ~node zap_t !c Leave;
      let c' =
        if spec.groups <= 1 then 0
        else begin
          (* Redraw until the channel changes (bounded: give up after a
             couple of tries so a degenerate skew cannot loop). *)
          let pickd = zipf_pick stream cum in
          if pickd <> !c then pickd else (pickd + 1) mod spec.groups
        end
      in
      let tj = zap_t +. zap_gap in
      if tj < spec.duration then emit st ~receiver ~node tj c' Join;
      t := zap_t;
      c := c'
    end
  done

(* Flash crowd: group 0 grows from [seed_count] receivers to the full
   crowd on a doubling ramp (seconds, not minutes), over a small Zipf
   background so multi-RP sharding has something to shard. *)
let flashcrowd_events spec cum ~bg ~receiver ~node stream st =
  let seed_count = 10 and ramp_start = 5. and ramp_secs = 8. in
  if receiver < bg then begin
    (* Background: a stable member of a non-crowd channel. *)
    let t0 = Prng.float stream 5. in
    let g = if spec.groups <= 1 then 0 else 1 + zipf_pick stream (Array.sub cum 0 (spec.groups - 1)) in
    emit st ~receiver ~node t0 g Join
  end
  else begin
    let i = receiver - bg in
    let n_crowd = spec.scale - bg in
    let tj =
      if i < seed_count then Prng.float stream 0.5
      else begin
        let log2 x = log x /. log 2. in
        let tau = ramp_secs /. Float.max 1. (log2 (float_of_int n_crowd /. float_of_int seed_count)) in
        ramp_start
        +. (tau *. log2 (float_of_int (i + 1) /. float_of_int seed_count))
        +. Prng.float stream 0.2
      end
    in
    if tj < spec.duration then begin
      emit st ~receiver ~node tj 0 Join;
      (* Half the crowd drains away during the final quarter. *)
      if Prng.bool stream then begin
        let tl = (0.75 *. spec.duration) +. Prng.float stream (0.2 *. spec.duration) in
        if tl > tj then emit st ~receiver ~node tl 0 Leave
      end
    end
  end

(* Stationary Zipf churn: alternate exponential on/off periods, each
   on-period picking its group by popularity. *)
let zipfian_events spec cum ~receiver ~node stream st =
  let t = ref (Prng.float stream 10.) in
  while !t < spec.duration do
    let g = zipf_pick stream cum in
    emit st ~receiver ~node !t g Join;
    let on = 1. +. Prng.exponential stream 20. in
    if !t +. on < spec.duration then emit st ~receiver ~node (!t +. on) g Leave;
    let off = 1. +. Prng.exponential stream 10. in
    t := !t +. on +. off
  done

(* Diurnal modulation: candidate joins from a homogeneous process thinned
   by a sin^2 day curve over the run — peak mid-run, troughs (and
   legitimately empty measurement windows) at both ends. *)
let diurnal_events spec cum ~receiver ~node stream st =
  let base_gap = spec.duration /. 8. in
  let lambda t = Float.pow (sin (Float.pi *. t /. spec.duration)) 2. in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    let cand = !t +. Prng.exponential stream base_gap in
    if cand >= spec.duration then continue := false
    else if Prng.float stream 1. < lambda cand then begin
      let g = zipf_pick stream cum in
      emit st ~receiver ~node cand g Join;
      let on = 2. +. Prng.exponential stream (spec.duration /. 6.) in
      if cand +. on < spec.duration then emit st ~receiver ~node (cand +. on) g Leave;
      t := cand +. on
    end
    else t := cand
  done

let events_for spec cum ~bg ~receiver ~node stream =
  let st = { acc = []; seq = 0 } in
  (match spec.model with
  | Zap -> zap_events spec cum ~receiver ~node stream st
  | Flashcrowd -> flashcrowd_events spec cum ~bg ~receiver ~node stream st
  | Zipfian -> zipfian_events spec cum ~receiver ~node stream st
  | Diurnal -> diurnal_events spec cum ~receiver ~node stream st);
  st.acc

let rp_pool_for spec (ts : Transit_stub.t) =
  match spec.rp_strategy with
  | Single -> [ List.hd ts.Transit_stub.transit ]
  | Sharded k | Elected k ->
    let arr = Array.of_list ts.Transit_stub.transit in
    List.init (Int.min k (Array.length arr)) (fun i -> arr.(i))

let rp_placement_for spec ts =
  match spec.protocol with
  | Stack.Pim_sm | Stack.Cbt ->
    let pool = Array.of_list (rp_pool_for spec ts) in
    List.init spec.groups (fun gi -> (gi, [ pool.(gi mod Array.length pool) ]))
  | Stack.Pim_dm | Stack.Dvmrp | Stack.Mospf -> []

let generate spec =
  if spec.nodes < 2 then invalid_arg "Workload.generate: nodes must be >= 2";
  if spec.groups < 1 then invalid_arg "Workload.generate: groups must be >= 1";
  if spec.scale < 1 then invalid_arg "Workload.generate: scale must be >= 1";
  if spec.window <= 0. then invalid_arg "Workload.generate: window must be > 0";
  if spec.duration <= 0. then invalid_arg "Workload.generate: duration must be > 0";
  let master = Prng.create spec.seed in
  let topo_stream = Prng.split master in
  let ts = gen_topo spec topo_stream in
  let placement_stream = Prng.split master in
  let homes =
    Array.init spec.scale (fun _ -> Transit_stub.random_stub_member ts ~prng:placement_stream)
  in
  let sources =
    Array.init spec.groups (fun gi ->
        (gi, Transit_stub.random_stub_member ts ~prng:placement_stream))
  in
  (* Array.init's evaluation order is unspecified, and stream identity is
     what makes results domain-count-independent: split every receiver's
     stream here, in receiver order, before any fan-out. *)
  let streams = Array.make spec.scale master in
  for r = 0 to spec.scale - 1 do
    streams.(r) <- Prng.split master
  done;
  let cum = zipf_cum ~groups:spec.groups ~skew:spec.skew in
  let bg =
    match spec.model with
    | Flashcrowd -> if spec.groups <= 1 then 0 else Int.min (spec.scale / 10) (spec.groups * 10)
    | Zap | Zipfian | Diurnal -> 0
  in
  let slots = Array.make spec.scale [] in
  let run_range lo hi =
    for r = lo to hi - 1 do
      slots.(r) <- events_for spec cum ~bg ~receiver:r ~node:homes.(r) streams.(r)
    done
  in
  let nd = Int.max 1 spec.domains in
  if nd <= 1 then run_range 0 spec.scale
  else
    List.init nd (fun k ->
        let lo = k * spec.scale / nd and hi = (k + 1) * spec.scale / nd in
        Domain.spawn (fun () -> run_range lo hi))
    |> List.iter Domain.join;
  (* One array, one sort: the keys are unique, so the order is the one
     any sort gives. *)
  let events = Array.concat (Array.to_list (Array.map Array.of_list slots)) in
  Array.stable_sort compare_sevent events;
  { spec; topology = ts; events; sources; rp_placement = rp_placement_for spec ts }

let render_schedule sched =
  let buf = Buffer.create (4096 + (64 * Array.length sched.events)) in
  let spec = sched.spec in
  Buffer.add_string buf
    (Printf.sprintf "workload %s protocol=%s rp=%s nodes=%d groups=%d scale=%d skew=%g seed=%d\n"
       (model_to_string spec.model) (Stack.to_string spec.protocol)
       (rp_strategy_to_string spec.rp_strategy) spec.nodes spec.groups spec.scale spec.skew
       spec.seed);
  Array.iter
    (fun (gi, src) -> Buffer.add_string buf (Printf.sprintf "source g=%d node=%d\n" gi src))
    sched.sources;
  List.iter
    (fun (gi, rps) ->
      Buffer.add_string buf
        (Printf.sprintf "rp g=%d nodes=%s\n" gi
           (String.concat "," (List.map string_of_int rps))))
    sched.rp_placement;
  Array.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f r=%d seq=%d g=%d node=%d %s\n" ev.t ev.receiver ev.seq ev.group
           ev.node
           (match ev.action with Join -> "join" | Leave -> "leave")))
    sched.events;
  Buffer.contents buf

(* {1 Replay} *)

type wrow = {
  window : M.window;
  joins : int;
  leaves : int;
  node_joins : int;
  join_latency : Stats.summary;
  spt_switches : int;
  control_msgs : int;
  data_msgs : int;
  rp_peak_load : int;
  rp_concentration : float;
}

type report = {
  schedule : schedule;
  rows : wrow list;
  total_joins : int;
  total_leaves : int;
  total_node_joins : int;
  join_latency : Stats.summary;
  total_spt_switches : int;
  total_control : int;
  total_data : int;
  rp_loads : (Topology.node * int) list;
  rp_concentration : float;
  oracle : (string * int) list;
  oracle_problems : string list;
  entries_end : int;
}

let concentration loads =
  let total = List.fold_left ( + ) 0 loads in
  if total = 0 || loads = [] then 0.
  else
    let peak = List.fold_left Int.max 0 loads in
    float_of_int peak /. (float_of_int total /. float_of_int (List.length loads))

let run ?trace spec =
  let sched = generate spec in
  let spec = sched.spec in
  let topo = sched.topology.Transit_stub.topo in
  let n_nodes = Topology.n_nodes topo in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let m = Net.metrics net in
  let rp_election = match spec.rp_strategy with Elected _ -> true | Single | Sharded _ -> false in
  let placement =
    List.map (fun (gi, rps) -> (Group.of_index gi, rps)) sched.rp_placement
  in
  let stacks =
    Stack.create_many ~placement ~rp_election ?trace
      ~groups:(List.init spec.groups Group.of_index)
      ~net spec.protocol
    |> List.map snd |> Array.of_list
  in
  let stack gi = stacks.(gi) in
  (* Windowed instruments, all registered before the first roll so every
     instrument has one row per window. *)
  let c_joins = M.wcounter m "workload_joins" in
  let c_leaves = M.wcounter m "workload_leaves" in
  let c_node_joins = M.wcounter m "workload_node_joins" in
  let c_control = M.wcounter m "workload_control_msgs" in
  let c_data = M.wcounter m "workload_data_msgs" in
  let c_spt = M.wcounter m "workload_spt_switches" in
  let h_latency = M.whistogram m "workload_join_latency" in
  let rp_nodes =
    List.concat_map snd sched.rp_placement |> List.sort_uniq Int.compare
  in
  let rp_counters =
    List.map
      (fun rp -> (rp, M.wcounter m ~labels:[ ("rp", string_of_int rp) ] "workload_rp_load"))
      rp_nodes
  in
  (* Link traversals delivered on an RP-adjacent link count toward that
     RP's load — the traffic-concentration measure of Figure 2(b) scoped
     to the rendezvous points. *)
  let rps_on_link = Array.make (Topology.n_links topo) [] in
  Array.iter
    (fun (l : Topology.link) ->
      let here =
        List.filter (fun (rp, _) -> Array.exists (Int.equal rp) l.Topology.ends) rp_counters
      in
      if here <> [] then rps_on_link.(l.Topology.id) <- here)
    (Topology.links topo);
  Net.on_deliver net (fun lid pkt ->
      if Metrics.is_data pkt then M.wincr c_data else M.wincr c_control;
      List.iter (fun (_, c) -> M.wincr c) rps_on_link.(lid));
  (* Receiver-count aggregation (IGMP-style): the protocol only sees the
     0->1 and 1->0 edges of the per-(group, node) receiver count. *)
  let idx g node = (g * n_nodes) + node in
  let counts = Array.make (spec.groups * n_nodes) 0 in
  let waiting = Array.make (spec.groups * n_nodes) (-1.) in
  let registered = Array.make (spec.groups * n_nodes) false in
  let all_latencies = ref [] in
  let apply ev =
    let i = idx ev.group ev.node in
    match ev.action with
    | Join ->
      M.wincr c_joins;
      counts.(i) <- counts.(i) + 1;
      if counts.(i) = 1 then begin
        M.wincr c_node_joins;
        if not registered.(i) then begin
          registered.(i) <- true;
          (stack ev.group).Stack.on_data ev.node (fun _ ->
              if waiting.(i) >= 0. then begin
                let lat = Engine.now eng -. waiting.(i) in
                M.wobserve h_latency lat;
                all_latencies := lat :: !all_latencies;
                waiting.(i) <- -1.
              end)
        end;
        waiting.(i) <- Engine.now eng;
        (stack ev.group).Stack.join ev.node
      end
    | Leave ->
      M.wincr c_leaves;
      if counts.(i) > 0 then begin
        counts.(i) <- counts.(i) - 1;
        if counts.(i) = 0 then begin
          waiting.(i) <- -1.;
          (stack ev.group).Stack.leave ev.node
        end
      end
  in
  Array.iter (fun ev -> ignore (Engine.schedule_at eng ev.t (fun () -> apply ev))) sched.events;
  (* Steady per-channel sources, 1 pkt/s, staggered so the send instants
     don't all collide on the same tick.  They keep sending through the
     settle tail: (S,G) keepalive is data-driven, so stopping data makes
     SPT state decay hop by hop and the oracle would flag that decay
     (upstream oifs legitimately outlive a dying downstream entry by one
     oif_holdtime).  The structural checks only hold under live data —
     the same reason the chaos harness probes with data before checking.
     Settle-tail deliveries land in the open (never-rolled) window, so
     the per-window rows and totals still cover exactly [0, duration). *)
  Array.iter
    (fun (gi, src) ->
      ignore
        (Engine.every eng
           ~start:(1.0 +. (0.01 *. float_of_int gi))
           ~interval:1.0
           (fun () -> (stack gi).Stack.send_from src)))
    sched.sources;
  (* Tumbling windows over [0, duration]. *)
  let n_win = Int.max 1 (int_of_float (ceil (spec.duration /. spec.window -. 1e-9))) in
  let prev_spt = ref 0 in
  for k = 1 to n_win do
    let t_end = Float.min spec.duration (float_of_int k *. spec.window) in
    ignore
      (Engine.schedule_at eng t_end (fun () ->
           let now_spt = (stack 0).Stack.spt_switches () in
           M.wincr c_spt ~by:(now_spt - !prev_spt);
           prev_spt := now_spt;
           let w = M.roll m ~t_start:(t_end -. spec.window) ~t_end in
           Option.iter
             (fun tr ->
               Trace.emit tr ~node:0
                 (Event.Window_roll
                    { index = w.M.index; t_start = w.M.t_start; t_end = w.M.t_end }))
             trace))
  done;
  let settle = Stack.settle_hint ~rp_election spec.protocol in
  Engine.run ~until:(spec.duration +. settle) eng;
  (* Assemble per-window rows from the aligned instrument rows. *)
  let counts_of c = Array.of_list (List.map snd (M.wcounter_rows c)) in
  let a_joins = counts_of c_joins
  and a_leaves = counts_of c_leaves
  and a_node_joins = counts_of c_node_joins
  and a_control = counts_of c_control
  and a_data = counts_of c_data
  and a_spt = counts_of c_spt in
  let a_lat = Array.of_list (M.whistogram_rows h_latency) in
  let a_rp = List.map (fun (rp, c) -> (rp, counts_of c)) rp_counters in
  let rows =
    List.init (Array.length a_lat) (fun i ->
        let window, join_latency = a_lat.(i) in
        let rp_window_loads = List.map (fun (_, a) -> a.(i)) a_rp in
        {
          window;
          joins = a_joins.(i);
          leaves = a_leaves.(i);
          node_joins = a_node_joins.(i);
          join_latency;
          spt_switches = a_spt.(i);
          control_msgs = a_control.(i);
          data_msgs = a_data.(i);
          rp_peak_load = List.fold_left Int.max 0 rp_window_loads;
          rp_concentration = concentration rp_window_loads;
        })
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let rp_loads = List.map (fun (rp, a) -> (rp, Array.fold_left ( + ) 0 a)) a_rp in
  let found = List.map (fun (name, check) -> (name, check ())) (stack 0).Stack.state_checks in
  let oracle = List.map (fun (name, problems) -> (name, List.length problems)) found in
  let oracle_problems =
    List.concat_map
      (fun (name, problems) -> List.map (Printf.sprintf "[%s] %s" name) problems)
      found
  in
  {
    schedule = sched;
    rows;
    total_joins = sum (fun r -> r.joins);
    total_leaves = sum (fun r -> r.leaves);
    total_node_joins = sum (fun r -> r.node_joins);
    join_latency = Stats.summarize !all_latencies;
    total_spt_switches = (stack 0).Stack.spt_switches ();
    total_control = sum (fun r -> r.control_msgs);
    total_data = sum (fun r -> r.data_msgs);
    rp_loads;
    rp_concentration = concentration (List.map snd rp_loads);
    oracle;
    oracle_problems;
    entries_end = (stack 0).Stack.entries ();
  }

(* {1 Rendering} *)

let summary_fields (s : Stats.summary) =
  [
    ("n", Json.Int s.Stats.n);
    ("mean", Json.Float s.Stats.mean);
    ("stddev", Json.Float s.Stats.stddev);
    ("min", Json.Float s.Stats.min);
    ("max", Json.Float s.Stats.max);
    ("p50", Json.Float s.Stats.p50);
    ("p95", Json.Float s.Stats.p95);
  ]

let row_to_json r =
  Json.Obj
    ([
       ("window", Json.Int r.window.M.index);
       ("t_start", Json.Float r.window.M.t_start);
       ("t_end", Json.Float r.window.M.t_end);
       ("joins", Json.Int r.joins);
       ("leaves", Json.Int r.leaves);
       ("node_joins", Json.Int r.node_joins);
       ("join_latency", Json.Obj (summary_fields r.join_latency));
       ("spt_switches", Json.Int r.spt_switches);
       ("control_msgs", Json.Int r.control_msgs);
       ("data_msgs", Json.Int r.data_msgs);
       ("rp_peak_load", Json.Int r.rp_peak_load);
       ("rp_concentration", Json.Float r.rp_concentration);
     ]
      : (string * Json.t) list)

let report_to_json rep =
  let spec = rep.schedule.spec in
  Json.Obj
    [
      ("schema", Json.Str "pim-workload/1");
      ( "params",
        Json.Obj
          [
            ("model", Json.Str (model_to_string spec.model));
            ("protocol", Json.Str (Stack.to_string spec.protocol));
            ("rp_strategy", Json.Str (rp_strategy_to_string spec.rp_strategy));
            ("nodes", Json.Int spec.nodes);
            ("groups", Json.Int spec.groups);
            ("scale", Json.Int spec.scale);
            ("skew", Json.Float spec.skew);
            ("duration", Json.Float spec.duration);
            ("window", Json.Float spec.window);
            ("seed", Json.Int spec.seed);
          ] );
      ("schedule_events", Json.Int (Array.length rep.schedule.events));
      ("rows", Json.Arr (List.map row_to_json rep.rows));
      ( "totals",
        Json.Obj
          [
            ("joins", Json.Int rep.total_joins);
            ("leaves", Json.Int rep.total_leaves);
            ("node_joins", Json.Int rep.total_node_joins);
            ("join_latency", Json.Obj (summary_fields rep.join_latency));
            ("spt_switches", Json.Int rep.total_spt_switches);
            ("control_msgs", Json.Int rep.total_control);
            ("data_msgs", Json.Int rep.total_data);
            ("rp_concentration", Json.Float rep.rp_concentration);
            ("entries_end", Json.Int rep.entries_end);
          ] );
      ( "rp_loads",
        Json.Arr
          (List.map
             (fun (rp, load) ->
               Json.Obj [ ("rp", Json.Int rp); ("load", Json.Int load) ])
             rep.rp_loads) );
      ( "oracle",
        Json.Arr
          (List.map
             (fun (name, problems) ->
               Json.Obj [ ("check", Json.Str name); ("problems", Json.Int problems) ])
             rep.oracle) );
    ]

let pp_report ppf rep =
  let spec = rep.schedule.spec in
  Format.fprintf ppf
    "# E11 workload: model=%s protocol=%s rp=%s nodes=%d groups=%d scale=%d skew=%g seed=%d@."
    (model_to_string spec.model) (Stack.to_string spec.protocol)
    (rp_strategy_to_string spec.rp_strategy) spec.nodes spec.groups spec.scale spec.skew
    spec.seed;
  Format.fprintf ppf
    "# win  [t0, t1)        joins leaves njoins  lat_mean  lat_p95  spt  control     data  rp_peak  conc@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%5d  [%5.1f,%6.1f)  %5d  %5d  %5d  %8.3f %8.3f  %3d  %7d  %7d  %7d  %4.2f@."
        r.window.M.index r.window.M.t_start r.window.M.t_end r.joins r.leaves r.node_joins
        r.join_latency.Stats.mean r.join_latency.Stats.p95 r.spt_switches r.control_msgs
        r.data_msgs r.rp_peak_load r.rp_concentration)
    rep.rows;
  Format.fprintf ppf
    "# totals: joins=%d leaves=%d node_joins=%d spt_switches=%d control=%d data=%d entries_end=%d@."
    rep.total_joins rep.total_leaves rep.total_node_joins rep.total_spt_switches
    rep.total_control rep.total_data rep.entries_end;
  Format.fprintf ppf "# join latency: %a@." Stats.pp_summary rep.join_latency;
  List.iter
    (fun (rp, load) -> Format.fprintf ppf "# rp %d: load=%d@." rp load)
    rep.rp_loads;
  Format.fprintf ppf "# rp concentration (peak/mean): %.2f@." rep.rp_concentration;
  List.iter
    (fun (name, problems) ->
      Format.fprintf ppf "# oracle %s: %s@." name
        (if problems = 0 then "clean" else Printf.sprintf "%d problem(s)" problems))
    rep.oracle;
  List.iter (fun line -> Format.fprintf ppf "#   %s@." line) rep.oracle_problems
