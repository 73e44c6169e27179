(** Experiment E2 — RP failure and receiver-driven failover (section 3.9).

    Two RPs serve one group; the source registers (and delivers) to both,
    receivers join toward the primary.  Mid-run the primary RP crashes.
    Receivers detect the missing RP-reachability beacons, join toward the
    alternate RP, and delivery resumes.  We measure the delivery gap at
    the receiver as a function of the RP-reachability timeout. *)

type row = {
  rp_timeout : float;  (** configured receiver-side liveness timeout *)
  gap : float;  (** longest inter-arrival gap at the receiver *)
  delivered_before : int;
  delivered_after : int;  (** packets received after the crash *)
  failovers : int;  (** RP failovers performed network-wide *)
}

val run : ?timeouts:float list -> seed:int -> unit -> row list
(** Defaults: timeouts [5.; 10.; 20.] seconds (with 1.5 s reachability
    beacons). *)

val pp_rows : Format.formatter -> row list -> unit

type strategy_row = {
  strategy : string;
  gap : float;  (** longest post-establishment inter-arrival gap *)
  budget : float;
      (** detection budget: rp_timeout, plus the election's
          {!Pim_core.Bsr.failover_budget} for the ["bsr"] strategy *)
  delivered_before : int;
  delivered_after : int;
  failovers : int;
  elections : int;  (** BSR step-ups (0 for static strategies) *)
  mapping_changes : int;  (** watched-mapping transitions (BSR only) *)
  control : int;  (** control-plane link traversals, whole run *)
  orphaned_entries : int;
      (** ["(*,G)"] entries still pointing at the crashed RP at the end —
          state the failover/soft-state machinery failed to re-home *)
}

val all_strategies : string list
(** [["static"; "random"; "center"; "locality"; "vns"; "bsr"]] — the
    canonical order of {!run_strategies} rows. *)

val run_strategies : ?strategies:string list -> seed:int -> unit -> strategy_row list
(** The same grid, stream and crash as {!run}, but the group-to-RP
    mapping comes from each {!Pim_core.Placement} strategy in turn —
    installed statically, or (["bsr"]) advertised through
    {!Stack.create_many}'s live bootstrap election (its two C-BSRs are
    neither the source nor the receiver) with no static configuration.
    Both sweeps share one run function.  The crash targets
    the strategy's primary RP.  Each strategy draws from its own split
    PRNG stream keyed by the canonical order, so running a subset
    reproduces the full run's rows byte for byte. *)

val pp_strategy_rows : Format.formatter -> strategy_row list -> unit
