(** Timestamped event trace.

    Protocols append typed {!Event.t}s; examples print them, tests match
    on their constructors, and {!save} writes them as JSONL for
    [pimsim trace] and the replay harness.  A run with no trace attached
    builds no events: every emission site sits behind {!active}. *)

type t

type record = {
  time : float;
  node : int;  (** router node, or -1 for hosts/global events *)
  event : Event.t;
}

val create : Engine.t -> t

val active : t option -> bool
(** [active trace] is true when a trace is attached: the one test
    protocols put in front of every emission site, so that an untraced
    run builds no event payloads. *)

val emit : t -> node:int -> Event.t -> unit
(** Append [event], stamped with the engine's current time. *)

val records : t -> record list
(** In chronological (append) order. *)

val pp_record : Format.formatter -> record -> unit
(** The record's JSONL line: {!Event.to_json} with ["t"] and ["node"]
    prepended. *)

val save : string -> t -> unit
(** Write every record as one JSONL line, chronological. *)
