(** Timestamped event trace.

    Protocols append records; examples print them, tests assert on them.
    A record is either a free-form string ({!log} / {!logf}) or the
    rendering of a typed {!Event.t} ({!emit}) — in the latter case the
    original event rides along in the [event] field, so tooling can
    consume the structured form while humans keep reading the same text.
    Disabled traces cost one branch per call. *)

type t

type record = {
  time : float;
  node : int;  (** router node, or -1 for hosts/global events *)
  tag : string;  (** short event class, e.g. "join", "prune", "register" *)
  detail : string;
  event : Event.t option;
      (** the typed event this record renders, when it came from {!emit} *)
}

val create : ?enabled:bool -> Engine.t -> t

val enable : t -> bool -> unit

val active : t option -> bool
(** [active trace] is true when a trace is attached and enabled: the one
    test protocols put in front of every emission site, so that an
    untraced run builds no event payloads or log strings. *)

val log : t -> node:int -> tag:string -> string -> unit

val logf : t -> node:int -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

val emit : t -> node:int -> Event.t -> unit
(** Append a typed event; its tag and detail are derived via {!Event.tag}
    and {!Event.pp}, so string-based assertions keep working. *)

val records : t -> record list
(** In chronological (append) order. *)

val events : t -> (float * int * Event.t) list
(** Just the typed records, as [(time, node, event)], chronological. *)

val count : t -> tag:string -> int

val find : t -> tag:string -> record list

val clear : t -> unit

val pp_record : Format.formatter -> record -> unit

val dump : Format.formatter -> t -> unit

val record_to_json : record -> Pim_util.Json.t
(** Typed records serialize via {!Event.to_json} with ["t"]/["node"]
    prepended; plain string records get [{"type": "log", ...}]. *)

val dump_jsonl : out_channel -> t -> unit
(** One compact JSON object per line, chronological. *)
