(** E11: production-shaped workload models over the {!Stack} adapter.

    The paper's section-1.2 case for PIM is about control overhead and
    state concentration under {e realistic} membership dynamics — argued
    in 1994, measured here.  Four deterministic, seeded schedule
    generators reproduce the membership/traffic shapes large multicast
    deployments actually see:

    - {b zap} — IPTV channel zapping: receivers hop between Zipf-popular
      channels with exponential dwell times, plus correlated "zap storms"
      where a fraction of the audience changes channel within the same
      second (an ad break ending).
    - {b flashcrowd} — one group grows from 10 receivers to the full
      [scale] in seconds (doubling ramp), against a Zipf background.
    - {b zipf} — stationary on/off churn where each on-period picks its
      group by Zipf popularity with configurable [skew].
    - {b diurnal} — join intensity modulated by a sin² day curve over the
      run, so measurement windows at the troughs are legitimately empty.

    A schedule is generated first (parallelizable across domains,
    byte-identical for any [domains] — each receiver owns a split PRNG
    stream, results merge in canonical order), then replayed
    single-threaded against one multi-group deployment
    ({!Stack.create_many}).  Replay measures per tumbling window
    ({!Pim_util.Metrics} windowed instruments): join latency,
    SPT-switchover storm counts, per-RP load concentration, and
    control-message overhead. *)

type model = Zap | Flashcrowd | Zipfian | Diurnal

val models : model list
(** Canonical order. *)

val model_to_string : model -> string
(** ["zap"], ["flashcrowd"], ["zipf"], ["diurnal"]. *)

val model_of_string : string -> model option

(** How groups are mapped to rendezvous points (PIM-SM; the CBT core
    placement reuses the same mapping). *)
type rp_strategy =
  | Single  (** every group homed on one backbone RP *)
  | Sharded of int  (** groups round-robined across [k] backbone RPs, static config *)
  | Elected of int  (** same sharding, but installed through a live BSR election *)

val rp_strategy_to_string : rp_strategy -> string

val rp_strategy_of_string : string -> rp_strategy option
(** ["single"], ["sharded:k"] / ["sharded"], ["bsr:k"] / ["bsr"]
    (default [k] = 4). *)

type spec = {
  model : model;
  protocol : Stack.protocol;
  rp_strategy : rp_strategy;
  nodes : int;  (** routers; the transit-stub topology is sized to this *)
  groups : int;  (** multicast groups ("channels") *)
  scale : int;  (** total receivers (many per router — IGMP-style aggregation) *)
  skew : float;  (** Zipf exponent for group popularity *)
  duration : float;  (** virtual seconds of schedule *)
  window : float;  (** tumbling measurement-window width *)
  domains : int;  (** domains to fan schedule generation across *)
  seed : int;
}

val default_spec : model -> spec
(** Moderate defaults (200 routers, 16 groups, 400 receivers, 60 s,
    5 s windows, PIM-SM, [Sharded 4]); flashcrowd raises [scale]. *)

(** {1 Schedules} *)

type action = Join | Leave

type sevent = {
  t : float;
  receiver : int;
  seq : int;  (** per-receiver emission index — the merge tiebreak *)
  group : int;
  node : Pim_graph.Topology.node;  (** the receiver's home (stub) router *)
  action : action;
}

type schedule = {
  spec : spec;
  topology : Pim_graph.Transit_stub.t;  (** the network the receivers and sources live on *)
  events : sevent array;  (** sorted by [(t, receiver, seq)] *)
  sources : (int * Pim_graph.Topology.node) array;  (** one steady source per group *)
  rp_placement : (int * Pim_graph.Topology.node list) list;
      (** group index to backbone RP/core nodes, per [rp_strategy] *)
}

val generate : spec -> schedule
(** Deterministic per [spec.seed]; byte-identical for any [spec.domains]
    (only wall-clock changes): every receiver draws from its own split
    stream, streams are split in receiver order before the fan-out, and
    results merge in canonical order — the fig2a contract.

    @raise Invalid_argument when [nodes] is below 2, [groups] or [scale]
    is below 1, or
    [window] or [duration] is not positive. *)

val render_schedule : schedule -> string
(** Canonical text rendering (one line per event plus the source and RP
    tables) — the byte-comparison key for the domains-identity qcheck
    property. *)

(** {1 Replay} *)

type wrow = {
  window : Pim_util.Metrics.window;
  joins : int;  (** receiver-level joins in the window *)
  leaves : int;
  node_joins : int;  (** protocol-level joins (0->1 membership edges) *)
  join_latency : Pim_util.Stats.summary;
      (** node-level join to first delivery, seconds;
          {!Pim_util.Stats.empty_summary} for windows with no joins *)
  spt_switches : int;  (** switchover storm size in the window *)
  control_msgs : int;  (** control-message link traversals *)
  data_msgs : int;
  rp_peak_load : int;  (** busiest RP's adjacent-link deliveries *)
  rp_concentration : float;
      (** peak / mean over the configured RPs (1.0 = perfectly balanced,
          k = everything on one of k RPs; 0 when no RPs or no load) *)
}

type report = {
  schedule : schedule;
  rows : wrow list;  (** one per tumbling window, in order *)
  total_joins : int;
  total_leaves : int;
  total_node_joins : int;
  join_latency : Pim_util.Stats.summary;  (** whole run *)
  total_spt_switches : int;
  total_control : int;
  total_data : int;
  rp_loads : (Pim_graph.Topology.node * int) list;
      (** cumulative per-RP load, sorted by node *)
  rp_concentration : float;  (** whole-run peak / mean *)
  oracle : (string * int) list;
      (** structural state-check name to problem count at end of run
          (all zero = oracle-clean) *)
  oracle_problems : string list;
      (** every problem those checks found, as ["[check] detail"], in
          check order; {!pp_report} prints them, the JSON only counts
          them *)
  entries_end : int;  (** protocol state entries at end of run *)
}

val run : ?trace:Pim_sim.Trace.t -> spec -> report
(** Generate the schedule and replay it: one shared deployment via
    {!Stack.create_many}, per-group steady sources (1 pkt/s), windowed
    instruments rolled every [spec.window] virtual seconds (a
    {!Pim_sim.Event.Window_roll} event is traced per roll when [trace]
    is given).  Deterministic per seed; [spec.domains] only parallelizes
    schedule generation. *)

val report_to_json : report -> Pim_util.Json.t
(** Schema ["pim-workload/1"]: params, per-window rows, totals, per-RP
    loads, oracle results.  Contains no wall-clock fields, so two runs
    with the same spec are byte-identical. *)

val pp_report : Format.formatter -> report -> unit
