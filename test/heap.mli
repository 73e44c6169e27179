(** Array-based binary min-heap, kept for the tests as a reference.

    The event engine ran on it before the timer wheel replaced it, and
    test_sim checks that the wheel executes random schedule-and-cancel
    workloads in exactly the order this heap does.  The comparison function
    is supplied at creation time.

    Popped and cleared slots are blanked, so the heap never retains
    references to removed elements. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] returns an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element, or [None] if empty. *)

val peek : 'a t -> 'a option
(** Return the minimum element without removing it. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Drain the heap, returning all elements in ascending order.  The heap is
    empty afterwards. *)
