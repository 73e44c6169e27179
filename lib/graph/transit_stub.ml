module Prng = Pim_util.Prng

type t = {
  topo : Topology.t;
  transit : Topology.node list;
  gateways : Topology.node list;
  stubs : Topology.node list list;
}

(* One transit router per ~40 total, three stubs each; e.g. 200 -> 5
   transit / stub size 13, 2000 -> 50 / 13 (50 + 50*3*13 = 2000 exactly). *)
let sizes ~nodes =
  let transit = Int.max 2 (nodes / 40) in
  let stubs_per_transit = 3 in
  let stub_size = Int.max 1 (((nodes / transit) - 1) / stubs_per_transit) in
  (transit, stubs_per_transit, stub_size)

let generate ?(transit = 4) ?(stubs_per_transit = 2) ?(stub_size = 4) ?(backbone_cost = 3)
    ?(backbone_delay = 5.) ?(access_cost = 2) ?(access_delay = 3.) ~prng () =
  if transit < 1 || stubs_per_transit < 1 || stub_size < 1 then
    invalid_arg "Transit_stub.generate: sizes must be positive";
  let total = transit + (transit * stubs_per_transit * stub_size) in
  let b = Topology.builder total in
  (* A random chord draw can land on a link that already exists — another
     chord from an earlier draw, a ring edge, or a stub's spanning-tree
     edge.  Track every edge as an unordered pair and skip duplicates, so
     the generated topology is always a simple graph.  A skipped draw
     consumes exactly the numbers it would have anyway, so the PRNG
     stream (and every later stub) is unchanged by the dedup. *)
  let edges = Hashtbl.create (2 * total) in
  let add_edge ?cost ?delay u v =
    let k = if u < v then (u, v) else (v, u) in
    if not (Hashtbl.mem edges k) then begin
      Hashtbl.add edges k ();
      ignore (Topology.add_p2p ?cost ?delay b u v)
    end
  in
  (* Backbone: ring plus a few random chords for path diversity. *)
  let transit_nodes = List.init transit Fun.id in
  if transit > 1 then begin
    for i = 0 to transit - 1 do
      if transit > 2 || i < transit - 1 then
        add_edge ~cost:backbone_cost ~delay:backbone_delay i ((i + 1) mod transit)
    done;
    if transit >= 4 then
      for _ = 1 to transit / 2 do
        let u = Prng.int prng transit and v = Prng.int prng transit in
        (* Ring edges and repeated draws are caught by [add_edge]. *)
        if u <> v then add_edge ~cost:backbone_cost ~delay:backbone_delay u v
      done
  end;
  (* Stub domains: a random connected graph behind one gateway. *)
  let next = ref transit in
  let stubs = ref [] in
  let gateways = ref [] in
  List.iter
    (fun tnode ->
      for _ = 1 to stubs_per_transit do
        let base = !next in
        next := !next + stub_size;
        let members = List.init stub_size (fun k -> base + k) in
        (* Spanning tree inside the stub... *)
        for k = 1 to stub_size - 1 do
          let parent = base + Prng.int prng k in
          add_edge (base + k) parent
        done;
        (* ...plus a chord when the stub is big enough; a draw that lands
           on a spanning-tree edge is dropped rather than doubled. *)
        if stub_size >= 4 then begin
          let u = base + Prng.int prng stub_size and v = base + Prng.int prng stub_size in
          if u <> v then add_edge u v
        end;
        (* Gateway = first router of the stub, attached to its transit. *)
        add_edge ~cost:access_cost ~delay:access_delay base tnode;
        gateways := base :: !gateways;
        stubs := members :: !stubs
      done)
    transit_nodes;
  {
    topo = Topology.freeze b;
    transit = transit_nodes;
    gateways = List.rev !gateways;
    stubs = List.rev !stubs;
  }

let random_stub_member t ~prng =
  let candidates =
    List.concat_map (function _gw :: rest when rest <> [] -> rest | stub -> stub) t.stubs
  in
  let arr = Array.of_list candidates in
  Prng.pick prng arr
