(** The identities of the last data packets an (S,G) entry forwarded.

    During the RP-tree/SPT switchover (section 3.5) the same packet can
    reach a router over both trees.  PIM-SM remembers, per (S,G) entry,
    the identities (the IP Identification field, [Mdata.seq] here) of the
    packets it forwarded, so that it can forward an RP-tree straggler
    whose SPT twin never existed and suppress a true duplicate.

    An id is {!seen} exactly when it is among the last {!capacity} ids
    {!record}ed.  Storage is sized by use: a ring starts with none,
    allocates 8 slots on its first record and doubles when full, up to
    {!capacity}.  It tracks the largest id it holds, so a fresh id — one
    above every id held, the common case for a source's increasing
    sequence numbers — is answered without a scan; it rescans only when
    that largest id is evicted. *)

type t

val capacity : int
(** 256: the window of remembered packets, which must exceed the number
    of packets in flight across the RP-tree/SPT path-length skew (a few
    dozen at realistic rates). *)

val create : unit -> t
(** An empty ring; it allocates no slots until the first {!record}. *)

val seen : t -> int -> bool
(** The id is among the last {!capacity} recorded.  Allocates nothing. *)

val record : t -> int -> unit
(** Remember the id, forgetting the oldest once {!capacity} are held.
    Allocates only when the storage doubles. *)

val length : t -> int
(** How many ids are held: the number recorded, at most {!capacity}. *)

val largest : t -> int
(** The largest id held, [min_int] when none is: an id above it is not
    {!seen}, which {!seen} answers without a scan. *)

val slots : t -> int
(** The storage allocated, in ids: 0 before the first {!record}, then the
    power of two at or above [max 8 (length t)]. *)
