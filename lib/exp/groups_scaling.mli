(** Experiment E5 — scaling with the number of groups (section 1.2).

    "The scalability of a multicast protocol can be evaluated in terms of
    its overhead growth with ... the number of groups" — and the paper's
    target regime is "much larger numbers of groups, many of which are
    sparse".  Here the number of simultaneously active sparse groups
    (3 members, 1 source each) sweeps upward on a fixed 50-node topology,
    and each protocol's state, control and data costs are measured under
    an identical schedule.

    Expected shapes: DVMRP floods per group, so its data cost grows with
    groups x network size; MOSPF's state grows with groups x routers
    (every router stores every group's membership); PIM and CBT grow with
    groups x tree size only. *)

type row = {
  protocol : string;
  groups : int;
  data_traversals : int;
  control_traversals : int;
  state_entries : int;
  deliveries : int;
  expected_deliveries : int;
}

val run :
  ?nodes:int ->
  ?degree:float ->
  ?members_per_group:int ->
  ?packets:int ->
  ?group_counts:int list ->
  seed:int ->
  unit ->
  row list
(** Defaults: 50 nodes, degree 4, 3 members/group, 5 packets/source,
    group counts [10; 40; 120].
    @raise Invalid_argument if a group count is negative. *)

val pp_rows : Format.formatter -> row list -> unit
