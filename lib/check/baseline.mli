(** Per-(rule, file) finding-count ratchet.  Legacy findings recorded
    here are tolerated; anything beyond the recorded count fails.  Rows
    are tier-tagged ("TIER RULE FILE COUNT") so one file ratchets both
    the untyped and the typed analysis tier. *)

type t

val empty : unit -> t

val load : string -> t
(** Missing file loads as an empty baseline.
    @raise Failure on a malformed line. *)

val save : t -> string -> unit
(** Write tier-tagged counts sorted by (file, rule), with a header. *)

val counts : Finding.t list -> t
(** Baseline that exactly covers [findings] (used by [--update-baseline]). *)

val merge_tier : tier:Finding.tier -> existing:t -> t -> t
(** [merge_tier ~tier ~existing fresh] keeps [existing]'s rows belonging
    to the {e other} tier and takes [fresh] for [tier]'s rows, so a
    one-tier [--update-baseline] cannot drop the other tier's ratchet. *)

val allowance : t -> rule:Finding.rule -> file:string -> int

val apply : t -> Finding.t list -> Finding.t list * Finding.t list
(** [apply t findings] is [(overflow, grandfathered)]: findings beyond
    each (rule, file) allowance, and findings covered by it. *)

val stale : t -> tier:Finding.tier -> in_scope:(string -> bool) -> Finding.t list -> Finding.t list
(** [stale t ~tier ~in_scope findings]: one finding (line 0, the row's
    rule) per [tier] row for a file [in_scope] whose allowance exceeds
    that (rule, file)'s count in [findings] — slack that a ported or
    fixed file must give up with [--update-baseline]. *)
