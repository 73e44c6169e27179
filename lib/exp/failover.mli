(** Experiment E2 — RP failure and receiver-driven failover (section 3.9).

    Two RPs serve one group; the source registers (and delivers) to both,
    receivers join toward the primary.  Mid-run the primary RP crashes.
    Receivers detect the missing RP-reachability beacons, join toward the
    alternate RP, and delivery resumes.  We measure the delivery gap at
    the receiver as a function of the RP-reachability timeout.

    Every run is a {!Dsl.program} on [topology grid 3 3]: the receiver
    joins, [at 30 fail-node rp], one [at T send 0] per packet (2 pkt/s
    from t=10 to t=75, each T drawn up front with a seeded jitter),
    [advance 85] and [mark end].  {!Dsl.run} replays it under {!config},
    and {!row} reads the outcome's arrival times, counters, mark and
    end-of-run forwarding rows. *)

type row = {
  strategy : string;  (** ["static"] in the timeout sweep *)
  gap : float;  (** longest inter-arrival gap at the receiver after t=15 *)
  budget : float;
      (** detection budget: the receiver-side rp_timeout, plus the
          election's {!Pim_core.Bsr.failover_budget} when the mapping is
          elected *)
  delivered_before : int;
  delivered_after : int;  (** packets received after the crash *)
  failovers : int;  (** RP failovers performed network-wide *)
  elections : int;  (** BSR step-ups (0 for static strategies) *)
  mapping_changes : int;  (** watched-mapping transitions (BSR only) *)
  control : int;  (** control-plane link traversals, whole run *)
  orphaned_entries : int;
      (** ["(*,G)"] entries still pointing at the crashed RP at the end —
          state the failover/soft-state machinery failed to re-home *)
}

val config : rp_timeout:float -> Stack.config
(** The deployment of every E2 run: {!Stack.fast} with 1.5 s
    RP-reachability beacons, the given receiver-side timeout, a 0.5 s
    sweep and no SPT switch. *)

val plans : ?timeouts:float list -> seed:int -> unit -> (float * Dsl.program) list
(** The timeout sweep: one program per timeout (default [5.; 10.; 20.]
    seconds), RPs 4 then 2, each drawing its jitter from its own split
    stream of [seed].  Run each under [config ~rp_timeout]. *)

val all_strategies : string list
(** [["static"; "random"; "center"; "locality"; "vns"; "bsr"]] — the
    canonical order of {!run_strategies} rows. *)

val strategy_plans : ?strategies:string list -> seed:int -> unit -> (string * Dsl.program) list
(** The same grid, stream and crash, but the group-to-RP mapping comes
    from each {!Pim_core.Placement} strategy in turn — installed
    statically, or (["bsr"], [rp-election on]) advertised through
    {!Stack.create_many}'s live bootstrap election (its two C-BSRs are
    neither the source nor the receiver).  The crash targets the
    strategy's primary RP.  Each strategy draws from its own split PRNG
    stream keyed by the canonical order, so running a subset reproduces
    the full run's rows byte for byte.  Run each under
    [config ~rp_timeout:5.].
    @raise Invalid_argument on an unknown strategy. *)

val row : strategy:string -> rp_timeout:float -> Dsl.program -> Dsl.outcome -> row
(** The report row of one {!Dsl.run} of a planned program under
    [config ~rp_timeout]. *)

val run : ?timeouts:float list -> seed:int -> unit -> row list
(** {!plans}, each run and read by {!row}. *)

val run_strategies : ?strategies:string list -> seed:int -> unit -> row list
(** {!strategy_plans}, each run and read by {!row}. *)

val pp_rows : Format.formatter -> row list -> unit
(** The timeout sweep's table (its budget column is the timeout). *)

val pp_strategy_rows : Format.formatter -> row list -> unit
