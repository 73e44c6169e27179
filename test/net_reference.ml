(* The network layer as it was before frames moved to per-link rings: a
   [Queue] of boxed pending records per link, a fresh closure and engine
   event per flush, receivers found with [Topology.others_on_link] and
   [Topology.iface_of_link], and hosts filtered out of one global array
   per broadcast frame.  Kept as the reference the ring-buffered [Net] is
   checked against (test_net's differential property). *)

module Engine = Pim_sim.Engine
module Packet = Pim_net.Packet
module Topology = Pim_graph.Topology
module Vec = Pim_util.Vec

type host_id = int

type host = {
  hlink : Topology.link_id;
  haddr : Pim_net.Addr.t;
  hrecv : Packet.t -> unit;
}

(* A frame queued on a link, waiting out the propagation delay. *)
type pending = {
  deadline : float;
  pkt : Packet.t;
  p_from : int option;
  p_to : int option;
}

type tamper = [ `Drop | `Duplicate | `Delay of float ]

type t = {
  eng : Engine.t;
  topo : Topology.t;
  handlers : (iface:Topology.iface -> Packet.t -> unit) Vec.t array;
  link_state : bool array;
  node_state : bool array;
  mutable hosts : host array;
  link_subs : (Topology.link_id -> bool -> unit) Vec.t;
  change_subs : (Topology.link_id list -> unit) Vec.t;
  deliver_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  send_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  drop_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  metrics : Pim_util.Metrics.t;
  m_offered : Pim_util.Metrics.counter;
  m_delivered : Pim_util.Metrics.counter;
  m_dropped : Pim_util.Metrics.counter;
  counts : int array;
  queues : pending Queue.t array;
  armed : bool array;
  tampers : tamper Queue.t array;
  mutable offered : int;
  mutable loss_rate : float;
  mutable loss_prng : Pim_util.Prng.t;
  mutable loss_filter : Packet.t -> bool;
  mutable dropped : int;
  mutable jitter : float;
  mutable jitter_prng : Pim_util.Prng.t;
}

let create eng topo =
  let metrics = Pim_util.Metrics.create () in
  {
    eng;
    topo;
    handlers = Array.init (Topology.n_nodes topo) (fun _ -> Vec.create ());
    link_state = Array.make (Topology.n_links topo) true;
    node_state = Array.make (Topology.n_nodes topo) true;
    hosts = [||];
    link_subs = Vec.create ();
    change_subs = Vec.create ();
    deliver_subs = Vec.create ();
    send_subs = Vec.create ();
    drop_subs = Vec.create ();
    metrics;
    m_offered = Pim_util.Metrics.counter metrics "net_offered";
    m_delivered = Pim_util.Metrics.counter metrics "net_delivered";
    m_dropped = Pim_util.Metrics.counter metrics "net_dropped";
    counts = Array.make (Topology.n_links topo) 0;
    queues = Array.init (Topology.n_links topo) (fun _ -> Queue.create ());
    armed = Array.make (Topology.n_links topo) false;
    tampers = Array.init (Topology.n_links topo) (fun _ -> Queue.create ());
    offered = 0;
    loss_rate = 0.;
    loss_prng = Pim_util.Prng.create 0x10ad;
    loss_filter = (fun _ -> true);
    dropped = 0;
    jitter = 0.;
    jitter_prng = Pim_util.Prng.create 0x317e;
  }

let engine t = t.eng

let topo t = t.topo

let set_handler t u h = Vec.push t.handlers.(u) h

let link_up t lid = t.link_state.(lid)

let node_up t u = t.node_state.(u)

(* One state change: the change subscribers hear it once, with every link
   it touched, before the per-link subscribers hear each link. *)
let notify t lids up =
  if lids <> [] then begin
    Vec.iter (fun f -> f lids) t.change_subs;
    List.iter (fun lid -> Vec.iter (fun f -> f lid up) t.link_subs) lids
  end

let set_link_up t lid up =
  if t.link_state.(lid) <> up then begin
    t.link_state.(lid) <- up;
    notify t [ lid ] up
  end

let set_node_up t u up =
  if t.node_state.(u) <> up then begin
    t.node_state.(u) <- up;
    (* Neighbors perceive the node's links flapping. *)
    let lids =
      Array.to_list (Topology.ifaces t.topo u)
      |> List.filter_map (fun (_, lid) -> if t.link_state.(lid) then Some lid else None)
    in
    notify t lids up
  end

let on_link_change t f = Vec.push t.link_subs f

let on_change t f = Vec.push t.change_subs f

let on_deliver t f = Vec.push t.deliver_subs f

let on_send t f = Vec.push t.send_subs f

let on_drop t f = Vec.push t.drop_subs f

let metrics t = t.metrics

let traversals t lid = t.counts.(lid)

let total_traversals t = Array.fold_left ( + ) 0 t.counts

let offered t = t.offered

let hosts_on_link t lid =
  Array.to_list t.hosts |> List.filter (fun h -> h.hlink = lid)

let set_loss_rate t ?prng ?(filter = fun _ -> true) rate =
  if rate < 0. || rate >= 1. then invalid_arg "Net.set_loss_rate: rate must be in [0, 1)";
  t.loss_rate <- rate;
  t.loss_filter <- filter;
  (match prng with Some p -> t.loss_prng <- p | None -> ())

let loss_rate t = t.loss_rate

let dropped t = t.dropped

let set_jitter t ?prng amplitude =
  if amplitude < 0. then invalid_arg "Net.set_jitter: amplitude must be >= 0";
  t.jitter <- amplitude;
  (match prng with Some p -> t.jitter_prng <- p | None -> ())

let jitter t = t.jitter

(* Propagation complete: hand the frame to routers/hosts on the link. *)
let deliver_one t lid ~from_node ~to_node pkt =
  (* The frame only counts as a traversal if the link is still up when
     propagation completes — a frame in flight on a link that died is
     lost, and must not inflate the overhead metrics. *)
  if not t.link_state.(lid) then begin
    Pim_util.Metrics.incr t.m_dropped;
    Vec.iter (fun f -> f lid pkt) t.drop_subs
  end
  else begin
    let link = Topology.link t.topo lid in
    t.counts.(lid) <- t.counts.(lid) + 1;
    Pim_util.Metrics.incr t.m_delivered;
    Vec.iter (fun f -> f lid pkt) t.deliver_subs;
    let routers =
      match to_node with
      | Some v -> if Array.exists (Int.equal v) link.Topology.ends then [ v ] else []
      | None -> (
        match from_node with
        | Some u -> Topology.others_on_link t.topo lid u
        | None -> Array.to_list link.Topology.ends)
    in
    List.iter
      (fun v ->
        if t.node_state.(v) then
          let iface = Topology.iface_of_link t.topo v lid in
          Vec.iter (fun h -> h ~iface pkt) t.handlers.(v))
      routers;
    (* Hosts only overhear broadcast frames; a host never hears its own
       transmission. *)
    if to_node = None then begin
      let from_host h =
        match from_node with
        | None -> Pim_net.Addr.equal h.haddr pkt.Packet.src
        | Some _ -> false
      in
      List.iter (fun h -> if not (from_host h) then h.hrecv pkt) (hosts_on_link t lid)
    end
  end

(* Deliver every queued frame that is due, then re-arm one timer for the
   head of what remains.  Per-link deadlines are monotone (fixed link
   delay, non-decreasing clock), so the FIFO queue is in deadline order
   and frames sharing a deadline are contiguous: the whole same-instant
   burst costs one engine event instead of one per packet. *)
let rec flush t lid =
  let q = t.queues.(lid) in
  let now = Engine.now t.eng in
  let rec go () =
    match Queue.peek_opt q with
    | Some it when it.deadline <= now ->
      ignore (Queue.pop q);
      deliver_one t lid ~from_node:it.p_from ~to_node:it.p_to it.pkt;
      go ()
    | _ -> ()
  in
  go ();
  match Queue.peek_opt q with
  | Some it -> ignore (Engine.schedule_at t.eng it.deadline (fun () -> flush t lid))
  | None -> t.armed.(lid) <- false

(* Normal propagation path: per-frame timer under jitter, otherwise the
   batched per-link FIFO (deadlines are monotone, so the queue stays in
   deadline order). *)
let propagate t ~from_node ~lid ~to_node pkt =
  let link = Topology.link t.topo lid in
  if t.jitter > 0. then begin
    (* Jitter gives every frame its own deadline: per-frame timer. *)
    let delay = link.Topology.delay +. Pim_util.Prng.float t.jitter_prng t.jitter in
    ignore
      (Engine.schedule t.eng ~after:delay (fun () ->
           deliver_one t lid ~from_node ~to_node pkt))
  end
  else begin
    let deadline = Engine.now t.eng +. link.Topology.delay in
    Queue.push { deadline; pkt; p_from = from_node; p_to = to_node } t.queues.(lid);
    if not t.armed.(lid) then begin
      t.armed.(lid) <- true;
      ignore (Engine.schedule_at t.eng deadline (fun () -> flush t lid))
    end
  end

let tamper_next t lid action = Queue.push action t.tampers.(lid)

let transmit t ~from_node ~lid ~to_node pkt =
  t.offered <- t.offered + 1;
  Pim_util.Metrics.incr t.m_offered;
  Vec.iter (fun f -> f lid pkt) t.send_subs;
  match Queue.take_opt t.tampers.(lid) with
  | Some `Drop ->
    t.dropped <- t.dropped + 1;
    Pim_util.Metrics.incr t.m_dropped;
    Vec.iter (fun f -> f lid pkt) t.drop_subs
  | Some (`Delay extra) ->
    (* Deliberately bypass the FIFO so later frames can overtake: a
       one-shot reordering.  Per-frame timer, like the jitter path, to
       preserve the queue's monotone-deadline invariant. *)
    let link = Topology.link t.topo lid in
    ignore
      (Engine.schedule t.eng ~after:(link.Topology.delay +. extra) (fun () ->
           deliver_one t lid ~from_node ~to_node pkt))
  | (Some `Duplicate | None) as tampered ->
    let duplicate = match tampered with Some `Duplicate -> true | _ -> false in
    if t.loss_rate > 0. && t.loss_filter pkt
       && Pim_util.Prng.float t.loss_prng 1.0 < t.loss_rate
    then begin
      t.dropped <- t.dropped + 1;
      Pim_util.Metrics.incr t.m_dropped;
      Vec.iter (fun f -> f lid pkt) t.drop_subs
    end
    else begin
      propagate t ~from_node ~lid ~to_node pkt;
      if duplicate then propagate t ~from_node ~lid ~to_node pkt
    end

let send t u ~iface ?to_node pkt =
  if t.node_state.(u) then begin
    let link = Topology.link_of_iface t.topo u iface in
    if t.link_state.(link.Topology.id) then
      transmit t ~from_node:(Some u) ~lid:link.Topology.id ~to_node pkt
  end

let attach_host t lid ~addr recv =
  let h = { hlink = lid; haddr = addr; hrecv = recv } in
  t.hosts <- Array.append t.hosts [| h |];
  Array.length t.hosts - 1

let host_send t hid pkt =
  let h = t.hosts.(hid) in
  if t.link_state.(h.hlink) then transmit t ~from_node:None ~lid:h.hlink ~to_node:None pkt

let host_addr t hid = t.hosts.(hid).haddr

let host_link t hid = t.hosts.(hid).hlink
