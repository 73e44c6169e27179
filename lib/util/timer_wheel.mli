(** Calendar-queue timer wheel: the priority queue under the simulation
    engine.

    A classic binary heap gives O(log n) insert/extract and — crucially —
    no cheap way to delete an arbitrary element: cancellation must either
    tombstone the event (leaking it until its fire time) or pay O(n) to
    find it.  At soft-state protocol scale (every (S,G) entry re-arms
    several timers per refresh period) tombstones dominate the queue.

    This structure is R. Brown's calendar queue (CACM 1988), the software
    ancestor of the kernel timer wheel: a power-of-two array of buckets,
    each [width] virtual seconds wide, addressed by
    [floor(time / width) mod n_buckets].  Each bucket holds an intrusive
    doubly-linked list kept sorted by [(time, seq)], so:

    - [add] is amortized O(1): the wheel resizes itself (and re-derives
      [width] from the live events' spacing) whenever occupancy drifts
      from ~1 event/bucket;
    - [pop] is amortized O(1): advance along the wheel to the next
      non-empty bucket of the current "year", with a direct min search as
      the fallback when a whole year is empty;
    - [cancel] is O(1) worst case: unlink the node from its bucket, no
      tombstones, no deferred sweep.  The wheel drops every reference to
      a cancelled or popped node, so its payload is immediately
      collectable.

    Only [add] allocates (the node itself, and the bucket array when the
    wheel resizes).  Linking a node into its bucket, popping, draining,
    cancelling and re-adding build nothing: the backward walk of a link
    and the dequeue scan are top-level recursions, not closures over the
    wheel, so a recurring timer re-armed with {!readd} costs no garbage
    per firing.

    Same-timestamp events pop in ascending [seq] order — callers thread a
    monotonic sequence number through [add], which keeps runs
    deterministic (the engine's FIFO-on-ties contract). *)

type 'a t

type 'a node
(** A scheduled element; also the O(1) cancellation capability. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (scheduled, not yet popped or cancelled) elements. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> seq:int -> 'a -> 'a node
(** Schedule a value.  [time] must be finite and no earlier than the last
    popped time; [seq] orders same-timestamp elements. *)

val cancel : 'a node -> unit
(** Unlink the node from its wheel in O(1).  Idempotent; a no-op on a
    node that was already popped or cancelled. *)

val pop : 'a t -> 'a node option
(** Remove and return the earliest element ([(time, seq)] order). *)

val pop_until : 'a t -> limit:float -> 'a node option
(** [pop_until t ~limit] is [pop t] if the earliest element's time is
    [<= limit]; otherwise [None], leaving the wheel untouched (the
    element is not popped, and the internal scan position does not
    advance past it). *)

val drain_until : 'a t -> limit:float -> ('a node -> unit) -> unit
(** [drain_until t ~limit f] pops elements in [(time, seq)] order and
    calls [f] on each, until the earliest remaining element is past
    [limit] (or the wheel is empty).  Each element is unlinked before
    [f] sees it, and [f] may add new elements — ones due within [limit]
    are drained in the same call.  Equivalent to looping {!pop_until}
    without boxing every element in an option. *)

val time : 'a node -> float

val seq : 'a node -> int

val value : 'a node -> 'a

val set_value : 'a node -> 'a -> unit
(** Replace the node's payload in place.  Lets a caller use the node
    itself as a handle (e.g. swapping a callback for a no-op on
    cancellation) without a wrapper allocation per element. *)

val readd : 'a node -> time:float -> seq:int -> unit
(** Re-schedule a popped or cancelled node at a new [(time, seq)],
    reusing its allocation.  Raises [Invalid_argument] if the node is
    still linked.  This is the re-arm path for recurring timers: the
    node's identity is stable across re-arms, so it can serve as a
    long-lived handle. *)

val linked : 'a node -> bool
(** [true] while the node is scheduled (not popped, not cancelled). *)
