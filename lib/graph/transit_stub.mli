(** Transit-stub topologies: the two-level wide-area structure the paper's
    setting implies (domains attached to an inter-domain backbone, as in
    its Figure 1).

    A backbone ("transit domain") of [transit] routers is wired as a ring
    plus random chords; each transit router attaches [stubs_per_transit]
    stub domains, each a small connected random graph of [stub_size]
    routers reached through one gateway.  Backbone and access links get
    higher cost/delay than intra-stub links, matching the "expensive WAN
    link" discussion of section 4. *)

type t = {
  topo : Topology.t;
  transit : Topology.node list;  (** backbone routers *)
  gateways : Topology.node list;  (** one stub gateway per stub domain *)
  stubs : Topology.node list list;  (** per stub domain, all its routers (gateway first) *)
  stub_members : Topology.node array;
      (** the routers {!random_stub_member} draws from, stub by stub: each
          stub's non-gateway routers, or the gateway of a one-router stub *)
}

val sizes : nodes:int -> int * int * int
(** [(transit, stubs_per_transit, stub_size)] for a network of roughly
    [nodes] routers: one transit router per ~40, three stubs each (2000
    maps exactly onto 50 transit routers with three 13-router stubs).
    The chaos harness, the scenario DSL and the workload harness all
    size their transit-stub networks this way. *)

val generate :
  ?transit:int ->
  ?stubs_per_transit:int ->
  ?stub_size:int ->
  ?backbone_cost:int ->
  ?backbone_delay:float ->
  ?access_cost:int ->
  ?access_delay:float ->
  prng:Pim_util.Prng.t ->
  unit ->
  t
(** Defaults: 4 transit routers, 2 stubs each, 4 routers per stub
    (20 nodes total); backbone links cost 3 / delay 5, access links cost
    2 / delay 3, stub links cost 1 / delay 1.

    The result is always a simple graph: chord draws that land on an
    existing link (a ring edge, a spanning-tree edge, or an earlier
    chord) are dropped rather than added as parallel edges.  Generation
    is linear in the number of routers, so multi-thousand-router
    topologies (e.g. [~transit:50 ~stubs_per_transit:3 ~stub_size:13]
    for 2000 routers) are cheap to produce. *)

val random_stub_member : t -> prng:Pim_util.Prng.t -> Topology.node
(** A uniformly chosen non-gateway stub router (where members and sources
    live in wide-area scenarios). *)
