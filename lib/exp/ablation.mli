(** Experiments E3 and E4 — ablations of PIM's design choices, each a
    PIM-SM {!Dsl.program} replayed under one config per row, whose row
    reads only the {!Dsl.outcome}.

    E3 (tree-type policy, section 3.3): the same workload under the three
    DR policies — stay on the shared tree forever, switch to the SPT on
    the first packet, or switch after a packet-count threshold.  Measures
    the delay/state/concentration trade-off the paper argues motivates
    supporting both tree types in one protocol.

    E4 (soft-state refresh period, footnote 4): sweep the Join/Prune
    refresh period.  Faster refresh cleans up stale state sooner after a
    receiver silently leaves — the soft-state reliability mechanism — but
    costs proportionally more control traffic.  (Repair after unicast
    routing changes is event-driven, section 3.8, and is exercised by the
    integration tests instead.) *)

type policy_row = {
  policy : string;
  mean_delay : float;  (** end-to-end delivery delay over all packets *)
  max_delay : float;
  state_entries : int;  (** at t=60 *)
  max_link_flows : int;
  deliveries : int;
}

val plan_policy :
  ?nodes:int -> ?degree:float -> ?members:int -> ?senders:int -> seed:int -> unit -> Dsl.program
(** [topology random] of [seed], the members drawn after it (the first
    is the RP), a [join] each, [advance 20], one [at T send N] per packet
    from the first [senders] members (20 each at 1 Hz, sender [k]
    0.13 s * [k] late), [advance 40], [mark end].  Defaults: 30 nodes,
    degree 4, 8 members, 4 senders. *)

val replay_policy : Dsl.program -> policy_row list
(** One row per DR policy; delays are arrival less send times. *)

val run_spt_policy :
  ?nodes:int -> ?degree:float -> ?members:int -> ?senders:int -> seed:int -> unit -> policy_row list

val pp_policy_rows : Format.formatter -> policy_row list -> unit

type refresh_row = {
  jp_period : float;
  control_traversals : int;  (** control traffic from t=10 to the leave at t=30 *)
  cleanup_time : float;  (** stale state's lifetime after the receiver leaves *)
  deliveries : int;
}

val plan_refresh : float -> Dsl.program
(** [topology line 6], RP 2: [join 5], [at 10 send 0 count=40
    interval=0.5], [at 10 mark window], [advance 30], [mark left],
    [leave 5], then [advance 0.25], [mark poll] for ten periods plus
    60 s; cleanup is the first poll with no state entries, each poll
    reading the state after every event due at its instant. *)

val replay_refresh : float -> Dsl.program -> refresh_row
(** The row for a Join/Prune refresh period. *)

val run_refresh : ?periods:float list -> seed:int -> unit -> refresh_row list
(** Defaults: periods [2.; 4.; 8.; 16.] seconds; [seed] is unused. *)

val pp_refresh_rows : Format.formatter -> refresh_row list -> unit
