(** Hash table from non-negative ints to ints.

    Open addressing with linear probing over two flat int arrays, kept
    at most three quarters full.  A lookup or a binding allocates
    nothing unless the table grows, so a count kept per event (the
    oracle's per-(probe, link) traversals, the scenario runner's
    per-(probe, member) copies) costs no words per event. *)

type t

val create : unit -> t
(** An empty table of 64 slots. *)

val find : t -> int -> int
(** The value bound to the key, or 0 when it is unbound. *)

val replace : t -> int -> int -> unit
(** Bind a key ([>= 0]) to a value, replacing any earlier binding. *)

val clear : t -> unit
(** Unbind every key, keeping the capacity reached. *)

val keys : t -> int array
(** The bound keys, ascending. *)
