(** Clock and allocation readings taken around calls into the simulator.

    The benchmark sees every layer from outside: it times and counts the
    public calls it makes, and never reaches into the program. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds.  Returns an unboxed [int], so hooks on
    the packet path can read it without allocating. *)

val seconds : int -> float
(** A nanosecond count in seconds. *)

type cost = {
  wall_s : float;
  alloc_mb : float;  (** {!Gc.allocated_bytes} delta, in 10{^6} bytes *)
}

val measure : (unit -> 'a) -> 'a * cost
(** Run the thunk once and report its wall time and allocation. *)

val peak_heap_mb : unit -> float
(** The major heap's high-water mark ([top_heap_words]) of this process,
    in 10{^6} bytes. *)

val median : float list -> float
(** Median of a non-empty list (mean of the two middle values when the
    length is even).  @raise Invalid_argument on an empty list. *)
