(** Experiment E6 — source aggregation in PIM messages (section 4).

    "There are several motivations for aggregating source information ...
    the most important issues are PIM message size and the amount of
    memory used for routing forwarding entries."

    A receiver joins the shortest-path trees of [sources] hosts that all
    live behind the same first-hop router (so their addresses share a
    /24).  With aggregation off, every periodic refresh toward that
    router carries one join entry per source; with aggregation on, the
    whole set collapses to a single /24 entry.  Forwarding state is
    per-source either way — the paper's "optimal with respect to PIM
    message size" aggregate, without giving up source-specific trees. *)

type row = {
  sources : int;
  aggregated : bool;
  join_entries : int;  (** join-list entries sent network-wide over the window *)
  control_bytes : int;
  deliveries : int;
  expected : int;
}

val program : hops:int -> sources:int -> packets:int -> Dsl.program
(** The run for both settings: one [send 0 host=H] step per source. *)

val row : sources:int -> packets:int -> aggregated:bool -> Dsl.outcome -> row
(** The report row of one {!Dsl.run} of the {!program}. *)

val run : ?hops:int -> ?source_counts:int list -> ?packets:int -> seed:int -> unit -> row list
(** Defaults: 6-hop path, source counts [1; 2; 4; 8], 25 packets per
    source. *)

val pp_rows : Format.formatter -> row list -> unit
