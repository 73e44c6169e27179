module Packet = Pim_net.Packet
module Topology = Pim_graph.Topology

type violation = {
  time : float;
  invariant : string;
  detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "t=%.2f [%s] %s" v.time v.invariant v.detail

type t = {
  net : Net.t;
  probe_id : Packet.t -> int;
  mutable max_copies : int;
  copies : Pim_util.Int_table.t;  (* probe * n_links + link -> traversals *)
  mutable violations : violation list;  (* newest first *)
}

let record t ~invariant detail =
  t.violations <-
    { time = Engine.now (Net.engine t.net); invariant; detail } :: t.violations

let recordf t ~invariant fmt = Format.kasprintf (record t ~invariant) fmt

let create ?(max_copies = 1) net ~probe_id =
  let t = { net; probe_id; max_copies; copies = Pim_util.Int_table.create (); violations = [] } in
  let n_links = Topology.n_links (Net.topo net) in
  (* Loop freedom, checked on the wire: no single data packet may
     traverse one link more than [max_copies] times.  A forwarding loop
     (or duplicate-delivery bug) shows up here within one packet
     lifetime, long before any state inspection would catch it.  One int
     key per (probe, link) in a flat table, so a traversal allocates
     nothing unless the table grows. *)
  Net.on_deliver net (fun lid pkt ->
      let probe = t.probe_id pkt in
      if probe >= 0 then begin
        let k = (probe * n_links) + lid in
        let n = 1 + Pim_util.Int_table.find t.copies k in
        Pim_util.Int_table.replace t.copies k n;
        if n = t.max_copies + 1 then
          recordf t ~invariant:"loop-freedom"
            "probe %d traversed link %d %d times (max %d) — %s" probe lid n t.max_copies
            (Packet.payload_to_string pkt.Packet.payload)
      end);
  t

let checkpoint t ~max_copies =
  if max_copies < 1 then invalid_arg "Oracle.checkpoint: max_copies must be >= 1";
  t.max_copies <- max_copies;
  Pim_util.Int_table.clear t.copies

let run_check t ~invariant f = List.iter (record t ~invariant) (f ())

(* A member the topology can still reach, that nonetheless received none
   of a probe window's packets, is behind a blackhole: the routing state
   silently eats traffic even though a path exists.  Reachability is
   computed over live links and nodes only — a genuinely partitioned
   member is not a blackhole. *)
let check_blackhole t ~source ~members ~probes ~received =
  if probes <> [] then begin
    let topo = Net.topo t.net in
    let n = Topology.n_nodes topo in
    let reachable = Array.make n false in
    if Net.node_up t.net source then begin
      reachable.(source) <- true;
      let q = Queue.create () in
      Queue.push source q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun (_, lid) ->
            if Net.link_up t.net lid then
              List.iter
                (fun v ->
                  if Net.node_up t.net v && not reachable.(v) then begin
                    reachable.(v) <- true;
                    Queue.push v q
                  end)
                (Topology.others_on_link topo lid u))
          (Topology.ifaces topo u)
      done
    end;
    let got_any m = List.exists (received m) probes in
    List.sort_uniq Int.compare members
    |> List.iter (fun m ->
           if m <> source && reachable.(m) && not (got_any m) then
             recordf t ~invariant:"blackhole"
               "member %d is reachable from source %d but received none of the %d-probe window"
               m source (List.length probes))
  end

let violations t = List.rev t.violations
