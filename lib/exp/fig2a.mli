(** Figure 2(a): ratio of the maximum intra-group delay on an optimally
    placed center-based tree to the shortest-path-tree maximum delay.

    Paper setup: for each network node degree from 3 to 8, 500 random
    50-node graphs, each with one 10-member group chosen randomly (members
    are also the senders); the core is placed optimally.  The reported
    curve lies between 1.0 and about 1.4, falling as the degree rises. *)

type row = {
  degree : float;
  mean_ratio : float;
  stddev : float;
  min_ratio : float;
  max_ratio : float;
  trials : int;
}

val run :
  ?nodes:int ->
  ?members:int ->
  ?trials:int ->
  ?degrees:float list ->
  ?domains:int ->
  seed:int ->
  unit ->
  row list
(** Defaults: 50 nodes, 10 members, 500 trials per degree, degrees 3..8,
    1 domain.  [domains > 1] fans the trials of each degree across that
    many OCaml domains; every trial draws from its own PRNG stream
    (split in trial order before the fan-out) and results are aggregated
    in trial order, so the rows are identical for any [domains] value —
    parallelism changes wall-clock time only.

    @raise Invalid_argument when [trials] or [domains] is below 1, or
    [members] below 2 (one member has no delay to compare). *)

val pp_rows : Format.formatter -> row list -> unit
(** Print the series the way the paper's figure plots it. *)
