(** Int-keyed indexed binary min-heap with [decrease_key].

    Elements are small integers below a fixed capacity (node ids in
    Dijkstra); each element appears at most once, and a position index maps
    elements back to heap slots so {!decrease_key} and {!mem} are O(1) (plus
    sifting for the former).  Equal keys compare on the element id, so the
    pop order — and anything built on it, like Dijkstra settle order — is
    deterministic.

    This heap never allocates after {!create}: {!clear} plus
    reuse is the intended pattern for scratch-buffer Dijkstra
    ({!Pim_graph.Spt.single_source_into} via its scratch). *)

type t

val create : capacity:int -> t
(** A heap over element ids [0 .. capacity-1], initially empty.
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int

val length : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool
(** O(1); [false] for ids outside the capacity. *)

val key : t -> int -> int option
(** Current key of an element, if present. *)

val insert : t -> int -> key:int -> unit
(** @raise Invalid_argument if the element is already present or out of
    capacity. *)

val decrease_key : t -> int -> key:int -> unit
(** @raise Invalid_argument if the element is absent or the new key is
    larger than the current one. *)

val push : t -> int -> key:int -> unit
(** [insert] if absent, [decrease_key] if present with a larger key, no-op
    otherwise.  The upsert Dijkstra wants. *)

val peek_min : t -> (int * int) option
(** [(element, key)] with the smallest key, without removing it. *)

val pop_min : t -> (int * int) option
(** Remove and return the [(element, key)] with the smallest key. *)

val take_min : t -> int
(** {!pop_min} without the key and without allocating: the element with
    the smallest key, removed, or [-1] when the heap is empty. *)

val clear : t -> unit
(** Empty the heap in O(length); the structure is immediately reusable. *)
