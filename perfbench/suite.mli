(** The benchmark's workloads and the loops that measure them. *)

type outcome = {
  fingerprint : string;
      (** the entry point's deterministic report, rendered; repetitions
          of one seed must produce the same bytes *)
  problems : int;  (** oracle problems the report records *)
  counts : Layers.counts list;  (** per replay, for the traced run to match *)
}

type traced = {
  values : Layers.values;
  counts : Layers.counts list;
      (** per mirrored replay; empty where the run is not mirrored *)
  total_s : float;
  mirrored_s : float;  (** the part of [total_s] spent in mirrored replays *)
  accounted_s : float;  (** the seconds of [mirrored_s] the named layers cover *)
}

type t = {
  name : string;
  entry : int -> outcome;  (** the entry points [pimsim] calls, for a benchmark seed *)
  setup : int -> unit;  (** the set-up calls those entry points make *)
  trace : int -> traced;  (** a separate run with every layer timed *)
}

val zap :
  name:string -> seeds:int array -> Pim_exp.Workload.spec -> Pim_exp.Stack.protocol list -> t
(** One [Workload.run] of the spec per protocol, in order.  Benchmark
    seed [n] runs simulator seed [seeds.(n mod k)] of the [k] given. *)

val chaos : name:string -> seeds:int array -> nodes:int -> t
(** [Chaos.run ~topology:`Transit_stub ~nodes ~protocols:["PIM-SM"]],
    seeded as {!zap}. *)

val both : name:string -> t -> t -> t
(** Run the first workload, then the second; sum their layers. *)

val workloads : t list
(** The workloads of [BENCHMARK.json]. *)

val end_to_end : (string * string) list
(** End-to-end metric names and units, as in [BENCHMARK.json]. *)

val per_layer : (string * string) list

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** every name of one of the lists above *)
  samples : int;  (** timed repetitions behind the medians *)
}

val run_untraced : t -> seed:int -> seconds:float -> result
(** Repeat the entry point (at least three times) and the set-up calls
    (at least three times) until [seconds] have passed; report the
    [end_to_end] metrics as medians.  A repetition fails if it raises,
    reports an oracle problem, or renders a report differing from the
    first repetition's. *)

val run_traced : t -> seed:int -> seconds:float -> result
(** Alternate untraced entry-point runs and traced runs (at least two
    each) until [seconds] have passed; report the [per_layer] metrics as
    medians.  Also fails when a traced run's work counts differ from the
    untraced report's, or its named layers account for less than 95% or
    more than 100.5% of its mirrored replays' wall time. *)
