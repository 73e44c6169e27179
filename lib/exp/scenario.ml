module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Trace = Pim_sim.Trace
module Capture = Pim_sim.Capture
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Mdata = Pim_mcast.Mdata
module Config = Pim_core.Config
module Router = Pim_core.Router
module Rp_set = Pim_core.Rp_set
module Deployment = Pim_core.Deployment

let group = Group.of_index 1

type spec = {
  seed : int;
  member_count : int;
  members_override : int list option;
  packets : int;
  check_from : int;
  switchover_fallback : bool;
}

let default_spec ~seed ~member_count =
  {
    seed;
    member_count;
    members_override = None;
    packets = 30;
    check_from = 22;
    switchover_fallback = true;
  }

type outcome = {
  nodes : int;
  members : int list;
  rp : int;
  source : int;
  wrong : (int * int * int) list;
  residual_entries : int;
  dup_suppressed : int;
  ok : bool;
}

let run ?capture_file ?trace_file ?metrics_file spec =
  (* Mirror the property's derivation exactly: same PRNG draws in the same
     order, so the same seed reproduces the same scenario byte for byte. *)
  let prng = Pim_util.Prng.create spec.seed in
  let nodes = 12 + Pim_util.Prng.int prng 14 in
  let topo =
    Pim_graph.Random_graph.generate ~prng ~nodes
      ~degree:(3. +. Pim_util.Prng.float prng 2.)
      ()
  in
  let derived_members =
    Pim_graph.Random_graph.pick_members ~prng ~nodes ~count:spec.member_count
  in
  let rp = List.nth derived_members (Pim_util.Prng.int prng spec.member_count) in
  let source = Pim_util.Prng.int prng nodes in
  (* The override shrinks the receiver set but must not shift rp/source:
     both were drawn before it applies. *)
  let members = Option.value spec.members_override ~default:derived_members in
  let eng = Engine.create () in
  let net = Net.create eng topo in
  let capture = Option.map (fun _ -> Capture.attach net) capture_file in
  let rp_set = Rp_set.single group (Addr.router rp) in
  let trace = Trace.create eng in
  let config = { Config.fast with Config.switchover_fallback = spec.switchover_fallback } in
  (* pimlint: allow H6 — export_metrics, local_source_addr *)
  let dep = Deployment.create_static ~config ~trace net ~rp_set in
  let delivery = Pim_mcast.Delivery.create () in
  let latency =
    Pim_util.Metrics.histogram (Net.metrics net)
      ~labels:[ ("group", Group.to_string group) ]
      "delivery_latency"
  in
  List.iter
    (fun m ->
      let r = Deployment.router dep m in
      Router.join_local r group;
      Router.on_local_data r (fun pkt ->
          match Mdata.info pkt with
          | Some i ->
            let now = Engine.now eng in
            Pim_util.Metrics.observe latency (now -. i.Mdata.sent_at);
            Pim_mcast.Delivery.record delivery ~group ~src:pkt.Pim_net.Packet.src
              ~seq:i.Mdata.seq ~receiver:m ~sent_at:i.Mdata.sent_at ~at:now
          | None -> ()))
    members;
  Engine.run ~until:10. eng;
  let sr = Deployment.router dep source in
  for i = 0 to spec.packets - 1 do
    ignore
      (Engine.schedule_at eng
         (10. +. (0.5 *. float_of_int i))
         (fun () -> Router.send_local_data sr ~group ()))
  done;
  Engine.run ~until:60. eng;
  let src = Router.local_source_addr sr in
  let wrong =
    List.concat_map
      (fun seq ->
        List.filter_map
          (fun m ->
            let copies = Pim_mcast.Delivery.copies delivery ~group ~src ~seq ~receiver:m in
            if copies = 1 then None else Some (m, seq, copies))
          members)
      (List.init (max 0 (spec.packets - spec.check_from)) (fun i -> spec.check_from + i))
  in
  List.iter (fun m -> Router.leave_local (Deployment.router dep m) group) members;
  Engine.run ~until:220. eng;
  let residual_entries = Deployment.total_entries dep in
  let dup_suppressed = Pim_sim.Counters.total (Net.counters net) Data_dup_suppressed in
  Option.iter (fun path -> Capture.save path (Capture.entries (Option.get capture))) capture_file;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.dump_jsonl oc trace))
    trace_file;
  Option.iter
    (fun path ->
      Deployment.export_metrics dep (Net.metrics net);
      Pim_util.Json.to_file path (Pim_util.Metrics.to_json (Net.metrics net)))
    metrics_file;
  {
    nodes;
    members;
    rp;
    source;
    wrong;
    residual_entries;
    dup_suppressed;
    ok = wrong = [] && residual_entries = 0;
  }

let fails spec = not (run spec).ok

(* Greedy one-at-a-time delta debugging: cheap (the scenario space is
   small) and deterministic.  Members are dropped while the failure
   persists, then the packet count is lowered the same way.  Dropping a
   member only shrinks the receiver set — the RP and source roles were
   drawn before the override applies and stay fixed. *)
let shrink spec =
  if not (fails spec) then spec
  else begin
    let current = ref spec in
    let members () =
      match !current.members_override with
      | Some ms -> ms
      | None -> (run !current).members
    in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun m ->
          let ms = members () in
          if List.length ms > 1 then begin
            let candidate =
              { !current with members_override = Some (List.filter (fun x -> x <> m) ms) }
            in
            if fails candidate then begin
              current := candidate;
              progress := true
            end
          end)
        (members ())
    done;
    let continue = ref true in
    while !continue do
      let c = !current in
      if c.packets > 1 && fails { c with packets = c.packets - 1 } then
        current := { c with packets = c.packets - 1 }
      else continue := false
    done;
    !current
  end
