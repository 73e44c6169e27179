(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock.  Events scheduled for
    the same instant run in scheduling order (a monotonically increasing
    sequence number breaks ties), which keeps every run deterministic.

    The paper's soft-state machinery — periodic Join/Prune refresh, oif
    timers, RP-reachability timers (sections 3.4, 3.6, 3.9) — is built on
    {!schedule} and {!every}.

    The queue is a calendar-queue timer wheel ({!Pim_util.Timer_wheel}):
    schedule, fire and {!cancel} are all amortized O(1), and cancellation
    removes the event from its wheel slot immediately rather than leaving
    a tombstone until its fire time.

    Allocation: {!schedule} builds one wheel node per event.  Firing an
    event and cancelling one build nothing, and re-arming a handle
    ({!rearm_at}, and every {!every} tick) builds only the boxed float of
    its new time, 2 words. *)

type t

type handle
(** A cancellable reference to a scheduled event (or recurring timer). *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** Run a callback [after] seconds from now ([after >= 0]). *)

val schedule_at : t -> float -> (unit -> unit) -> handle
(** Run a callback at an absolute time (not earlier than [now]). *)

val every : t -> ?start:float -> interval:float -> (unit -> unit) -> handle
(** Recurring timer: first fires after [start] (default [interval]) and then
    every [interval] seconds until cancelled. *)

val rearm_at : t -> handle -> float -> unit
(** [rearm_at t h time] schedules the callback of [h] again at an absolute
    time (not earlier than [now]), reusing [h]'s allocation.  [h] must not
    be queued: call it from [h]'s own callback, or after [h] fired.  It
    takes the next sequence number, as {!schedule_at} would, so events at
    the same instant keep their scheduling order.  A cancelled handle runs
    a no-op when re-armed.  Recurring timers ({!every}) and the network's
    per-link delivery timers re-arm through it.
    @raise Invalid_argument if [h] is still queued or [time] is past. *)

val cancel : handle -> unit
(** Remove the event from the queue in O(1).  Cancelling an already-fired
    one-shot event (or cancelling twice) is a no-op. *)

val run : ?until:float -> t -> unit
(** Process events in time order.  Stops when the queue empties, or, when
    [until] is given, once the clock would pass it (the clock is then set
    to [until]; pending recurring timers remain scheduled). *)

val pending : t -> int
(** Number of live queued events.  Cancelled events leave the queue
    immediately and are never counted. *)
