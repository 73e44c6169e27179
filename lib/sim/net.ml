module Packet = Pim_net.Packet
module Topology = Pim_graph.Topology
module Vec = Pim_util.Vec

type host_id = int

type host = {
  hlink : Topology.link_id;
  haddr : Pim_net.Addr.t;
  hrecv : Packet.t -> unit;
}

(* Frames in flight on one link, waiting out its propagation delay: a
   ring of parallel arrays (unboxed deadline, packet, sending router and
   hop count packed by [pack_from], target router; [Topology.no_node] for
   none), grown by doubling, so queueing a frame allocates nothing.
   [fire] is the link's flush timer: created with its closure on first
   use, then re-armed in place. *)
type ring = {
  mutable deadlines : float array;
  mutable pkts : Packet.t array;
  mutable froms : int array;
  mutable tos : int array;
  mutable head : int;
  mutable len : int;
  mutable armed : bool;
  mutable fire : Engine.handle option;
}

type tamper = [ `Drop | `Duplicate | `Delay of float ]

type t = {
  eng : Engine.t;
  topo : Topology.t;
  handlers : (iface:Topology.iface -> Packet.t -> unit) Vec.t array;
  link_state : bool array;
  node_state : bool array;
  hosts : host Vec.t;
  link_hosts : host array array;  (* per link, in attach order *)
  link_subs : (Topology.link_id -> bool -> unit) Vec.t;
  change_subs : (Topology.link_id list -> unit) Vec.t;
  deliver_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  send_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  drop_subs : (Topology.link_id -> Packet.t -> unit) Vec.t;
  metrics : Pim_util.Metrics.t;
  m_offered : Pim_util.Metrics.counter;
  m_delivered : Pim_util.Metrics.counter;
  m_dropped : Pim_util.Metrics.counter;
  counters : Counters.t;
  counts : int array;
  rings : ring array;
  tampers : tamper Queue.t array;
  mutable offered : int;
  mutable loss_rate : float;
  mutable loss_prng : Pim_util.Prng.t;
  mutable loss_filter : Packet.t -> bool;
  mutable dropped : int;
  mutable jitter : float;
  mutable jitter_prng : Pim_util.Prng.t;
  mutable frame : Packet.t;
  mutable frame_hops : int;
      (* The frame being delivered and how many routers forwarded it, while
         that is more than none; [vacant] and 0 otherwise. *)
}

(* A frame's sending router and hop count share one ring slot: the sender
   + 1 ([Topology.no_node] is -1) in the low 32 bits, the hops above. *)
let pack_from from_node hops = (hops lsl 32) lor (from_node + 1)

let sender_of word = (word land 0xFFFF_FFFF) - 1

let hops_in word = word lsr 32

(* Fills vacated ring slots, so a ring never keeps a delivered packet
   alive. *)
let vacant =
  Packet.unicast ~src:(Pim_net.Addr.router 0) ~dst:(Pim_net.Addr.router 0) ~size:0 (Packet.Raw "")

let create eng topo =
  let metrics = Pim_util.Metrics.create () in
  {
    eng;
    topo;
    handlers = Array.init (Topology.n_nodes topo) (fun _ -> Vec.create ());
    link_state = Array.make (Topology.n_links topo) true;
    node_state = Array.make (Topology.n_nodes topo) true;
    hosts = Vec.create ();
    link_hosts = Array.make (Topology.n_links topo) [||];
    link_subs = Vec.create ();
    change_subs = Vec.create ();
    deliver_subs = Vec.create ();
    send_subs = Vec.create ();
    drop_subs = Vec.create ();
    metrics;
    m_offered = Pim_util.Metrics.counter metrics "net_offered";
    m_delivered = Pim_util.Metrics.counter metrics "net_delivered";
    m_dropped = Pim_util.Metrics.counter metrics "net_dropped";
    counters = Counters.create ~nodes:(Topology.n_nodes topo);
    counts = Array.make (Topology.n_links topo) 0;
    rings =
      Array.init (Topology.n_links topo) (fun _ ->
          {
            deadlines = [||];
            pkts = [||];
            froms = [||];
            tos = [||];
            head = 0;
            len = 0;
            armed = false;
            fire = None;
          });
    tampers = Array.init (Topology.n_links topo) (fun _ -> Queue.create ());
    offered = 0;
    loss_rate = 0.;
    loss_prng = Pim_util.Prng.create 0x10ad;
    loss_filter = (fun _ -> true);
    dropped = 0;
    jitter = 0.;
    jitter_prng = Pim_util.Prng.create 0x317e;
    frame = vacant;
    frame_hops = 0;
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

let counters t = t.counters

let traversals t lid = t.counts.(lid)

let total_traversals t = Array.fold_left ( + ) 0 t.counts

let offered t = t.offered

let set_loss_rate t ?prng ?filter rate =
  if rate < 0. || rate >= 1. then invalid_arg "Net.set_loss_rate: rate must be in [0, 1)";
  t.loss_rate <- rate;
  Option.iter (fun f -> t.loss_filter <- f) filter;
  Option.iter (fun p -> t.loss_prng <- p) prng

let loss_rate t = t.loss_rate

let dropped t = t.dropped

let set_jitter t ?prng amplitude =
  if amplitude < 0. then invalid_arg "Net.set_jitter: amplitude must be >= 0";
  t.jitter <- amplitude;
  (match prng with Some p -> t.jitter_prng <- p | None -> ())

let jitter t = t.jitter

(* Subscribers and handlers are called by index rather than through
   [Vec.iter], which would build a closure per frame.  The callback is
   bound before it is applied: [Vec.get subs i lid pkt] over-applies
   [Vec.get], and the generic application builds a partial closure per
   call. *)
let notify_pkt subs lid pkt =
  for i = 0 to Vec.length subs - 1 do
    let f = Vec.get subs i in
    f lid pkt
  done

let receive t v ~iface pkt =
  if t.node_state.(v) then begin
    let hs = t.handlers.(v) in
    for i = 0 to Vec.length hs - 1 do
      let h = Vec.get hs i in
      h ~iface pkt
    done
  end

let rec index_of ends v k =
  if k >= Array.length ends then -1 else if ends.(k) = v then k else index_of ends v (k + 1)

(* Propagation complete: hand the frame to routers/hosts on the link.
   [from_node] and [to_node] are [Topology.no_node] for a host sender
   and a broadcast frame; [hops] routers forwarded it.  Receivers hear it
   in the link's end order, then its hosts in attach order. *)
let deliver_one t lid ~from_node ~to_node ~hops pkt =
  (* The frame only counts as a traversal if the link is still up when
     propagation completes — a frame in flight on a link that died is
     lost, and must not inflate the overhead metrics. *)
  if not t.link_state.(lid) then begin
    Pim_util.Metrics.incr t.m_dropped;
    notify_pkt t.drop_subs lid pkt
  end
  else begin
    let ends = (Topology.link t.topo lid).Topology.ends in
    let ifaces = Topology.end_ifaces t.topo lid in
    t.counts.(lid) <- t.counts.(lid) + 1;
    Pim_util.Metrics.incr t.m_delivered;
    if hops > 0 then begin
      t.frame <- pkt;
      t.frame_hops <- hops
    end;
    notify_pkt t.deliver_subs lid pkt;
    if to_node <> Topology.no_node then begin
      let k = index_of ends to_node 0 in
      if k >= 0 then receive t to_node ~iface:ifaces.(k) pkt
    end
    else begin
      for k = 0 to Array.length ends - 1 do
        let v = ends.(k) in
        if v <> from_node then receive t v ~iface:ifaces.(k) pkt
      done;
      (* Hosts only overhear broadcast frames; a host never hears its own
         transmission. *)
      let hs = t.link_hosts.(lid) in
      for i = 0 to Array.length hs - 1 do
        let h = hs.(i) in
        if from_node <> Topology.no_node || not (Pim_net.Addr.equal h.haddr pkt.Packet.src) then h.hrecv pkt
      done
    end;
    if hops > 0 then begin
      t.frame <- vacant;
      t.frame_hops <- 0
    end
  end

(* How many routers forwarded [pkt]: the delivered frame's count, none
   for any other packet.  Identity, not equality: an equal packet built
   elsewhere is another frame. *)
let hops_of t pkt = if pkt == t.frame then t.frame_hops else 0 (* pimlint: allow H2 — frame identity *)

let ttl t pkt = pkt.Packet.ttl - hops_of t pkt

let with_ttl t pkt =
  let hops = hops_of t pkt in
  if hops = 0 then pkt else { pkt with Packet.ttl = pkt.Packet.ttl - hops }

let grow r =
  let cap = Array.length r.pkts in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let deadlines = Array.make cap' 0. and pkts = Array.make cap' vacant in
  let froms = Array.make cap' Topology.no_node and tos = Array.make cap' Topology.no_node in
  for k = 0 to r.len - 1 do
    let j = (r.head + k) land (cap - 1) in
    deadlines.(k) <- r.deadlines.(j);
    pkts.(k) <- r.pkts.(j);
    froms.(k) <- r.froms.(j);
    tos.(k) <- r.tos.(j)
  done;
  r.deadlines <- deadlines;
  r.pkts <- pkts;
  r.froms <- froms;
  r.tos <- tos;
  r.head <- 0

(* Deliver every queued frame that is due, then re-arm the link's timer
   for the head of what remains.  Per-link deadlines are monotone (fixed
   link delay, non-decreasing clock), so the ring is in deadline order and
   frames sharing a deadline are contiguous: the whole same-instant burst
   costs one engine event instead of one per packet.  A frame is popped
   before it is delivered; receivers may queue new frames on this link
   meanwhile. *)
let rec flush t lid =
  let r = t.rings.(lid) in
  let now = Engine.now t.eng in
  while r.len > 0 && r.deadlines.(r.head) <= now do
    let i = r.head in
    let pkt = r.pkts.(i) and from = r.froms.(i) in
    r.pkts.(i) <- vacant;
    r.head <- (i + 1) land (Array.length r.pkts - 1);
    r.len <- r.len - 1;
    deliver_one t lid ~from_node:(sender_of from) ~to_node:r.tos.(i) ~hops:(hops_in from) pkt
  done;
  if r.len > 0 then arm t lid r else r.armed <- false

(* Schedule the link's flush at the ring's head deadline. *)
and arm t lid r =
  let deadline = r.deadlines.(r.head) in
  match r.fire with
  | Some h -> Engine.rearm_at t.eng h deadline
  | None -> r.fire <- Some (Engine.schedule_at t.eng deadline (fun () -> flush t lid))

(* Normal propagation path: per-frame timer under jitter, otherwise the
   batched per-link ring (deadlines are monotone, so the ring stays in
   deadline order). *)
let propagate t ~from_node ~lid ~to_node ~hops pkt =
  let link = Topology.link t.topo lid in
  if t.jitter > 0. then begin
    (* Jitter gives every frame its own deadline: per-frame timer. *)
    let delay = link.Topology.delay +. Pim_util.Prng.float t.jitter_prng t.jitter in
    ignore
      (Engine.schedule t.eng ~after:delay (fun () ->
           deliver_one t lid ~from_node ~to_node ~hops pkt))
  end
  else begin
    let r = t.rings.(lid) in
    if r.len = Array.length r.pkts then grow r;
    let i = (r.head + r.len) land (Array.length r.pkts - 1) in
    r.deadlines.(i) <- Engine.now t.eng +. link.Topology.delay;
    r.pkts.(i) <- pkt;
    r.froms.(i) <- pack_from from_node hops;
    r.tos.(i) <- to_node;
    r.len <- r.len + 1;
    if not r.armed then begin
      r.armed <- true;
      arm t lid r
    end
  end

let tamper_next t lid action = Queue.push action t.tampers.(lid)

let drop t lid pkt =
  t.dropped <- t.dropped + 1;
  Pim_util.Metrics.incr t.m_dropped;
  notify_pkt t.drop_subs lid pkt

(* The loss roll, then one propagation (two for a [`Duplicate]). *)
let offer t ~from_node ~lid ~to_node ~hops ~duplicate pkt =
  if t.loss_rate > 0. && t.loss_filter pkt && Pim_util.Prng.float t.loss_prng 1.0 < t.loss_rate
  then drop t lid pkt
  else begin
    propagate t ~from_node ~lid ~to_node ~hops pkt;
    if duplicate then propagate t ~from_node ~lid ~to_node ~hops pkt
  end

let transmit t ~from_node ~lid ~to_node ~hops pkt =
  t.offered <- t.offered + 1;
  Pim_util.Metrics.incr t.m_offered;
  notify_pkt t.send_subs lid pkt;
  let tampers = t.tampers.(lid) in
  if Queue.is_empty tampers then offer t ~from_node ~lid ~to_node ~hops ~duplicate:false pkt
  else
    match Queue.take tampers with
    | `Drop -> drop t lid pkt
    | `Delay extra ->
      (* Deliberately bypass the ring so later frames can overtake: a
         one-shot reordering.  Per-frame timer, like the jitter path, to
         preserve the ring's monotone-deadline invariant. *)
      let link = Topology.link t.topo lid in
      ignore
        (Engine.schedule t.eng ~after:(link.Topology.delay +. extra) (fun () ->
             deliver_one t lid ~from_node ~to_node ~hops pkt))
    | `Duplicate -> offer t ~from_node ~lid ~to_node ~hops ~duplicate:true pkt

let send_hops t u ~iface ~to_node ~hops pkt =
  if t.node_state.(u) then begin
    let link = Topology.link_of_iface t.topo u iface in
    if t.link_state.(link.Topology.id) then transmit t ~from_node:u ~lid:link.Topology.id ~to_node ~hops pkt
  end

let send t u ~iface ?to_node pkt =
  let to_node = match to_node with Some v -> v | None -> Topology.no_node in
  send_hops t u ~iface ~to_node ~hops:(hops_of t pkt) pkt

let forward t u ~iface pkt =
  let hops = hops_of t pkt + 1 in
  if pkt.Packet.ttl - hops < 1 then invalid_arg "Net.forward: TTL exhausted";
  send_hops t u ~iface ~to_node:Topology.no_node ~hops pkt

let attach_host t lid ~addr recv =
  let h = { hlink = lid; haddr = addr; hrecv = recv } in
  t.link_hosts.(lid) <- Array.append t.link_hosts.(lid) [| h |];
  Vec.push t.hosts h;
  Vec.length t.hosts - 1

let host_send t hid pkt =
  let h = Vec.get t.hosts hid in
  if t.link_state.(h.hlink) then
    transmit t ~from_node:Topology.no_node ~lid:h.hlink ~to_node:Topology.no_node ~hops:0 pkt

let host_addr t hid = (Vec.get t.hosts hid).haddr

let host_link t hid = (Vec.get t.hosts hid).hlink
