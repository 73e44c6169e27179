(** Typed protocol events.

    The one vocabulary of the trace: each constructor captures one
    protocol decision with enough detail to attribute a delivered,
    duplicated, or dropped packet to it (the analysis the paper's
    Figure 2 evaluation relies on, and the one that diagnosed the
    RP-tree/SPT switchover loss — see ARCHITECTURE.md).  Each has one
    name, its JSON ["type"], and one rendering, {!to_json}.

    This module lives below the protocol libraries, so addresses and
    groups appear in their string rendering ([Pim_net.Addr.to_string] /
    [Pim_net.Group.to_string]); interface numbers are the per-node
    interface indices of {!Net}, with [-1] denoting the synthetic local
    (host-facing) interface.

    Events serialize to single-line JSON and parse back losslessly —
    {!of_json} is a total inverse of {!to_json} — so captures written as
    JSONL can be re-read by [pimsim trace] and by the replay harness. *)

type route = {
  group : string;
  source : string option;  (** [None] for shared-tree (star,G) state *)
}
(** An (S,G) or shared-tree (star,G) route designator. *)

type t =
  | Join of { route : route; iface : int }
      (** Join-list entry accepted from [iface] (or scheduled upstream). *)
  | Prune of { route : route; iface : int }
      (** Prune-list entry accepted from [iface]. *)
  | Graft of { route : route; iface : int }
      (** Dense-mode graft re-attaching [iface]. *)
  | Register of { group : string; source : string }
      (** DR encapsulated a packet from [source] towards the RP. *)
  | Register_stop of { group : string; source : string }
      (** RP told the DR to stop encapsulating. *)
  | Spt_switch of { group : string; source : string }
      (** A last-hop router starts the RP-tree to shortest-path-tree
          transition for [source] (section 3.3): it joins toward the
          source and keeps taking data off the shared tree.  {!Spt_bit}
          records when the transition completes. *)
  | Assert of { group : string; iface : int; winner : int }
      (** Assert election on a LAN; [winner] is the elected forwarder. *)
  | Entry_install of { route : route }  (** Forwarding entry created. *)
  | Entry_expire of { route : route }  (** Forwarding entry timed out / deleted. *)
  | Pkt_send of { src : string; group : string; iface : int }
      (** Data packet transmitted out [iface]. *)
  | Pkt_deliver of { src : string; group : string; iface : int }
      (** Data packet handed to local members ([iface] it arrived on). *)
  | Pkt_drop of { src : string; group : string; iface : int; reason : string }
      (** Data packet discarded; [reason] is a stable keyword
          (e.g. ["iif"], ["no-state"], ["dup"], ["ttl"]). *)
  | Candidate_rp of { rp : string; priority : int; groups : int }
      (** Candidate-RP advertisement sent toward the BSR; [groups] is the
          coverage count (0 = advertises for every group). *)
  | Bsr_elected of { bsr : string; priority : int }
      (** This router accepted [bsr] as the elected bootstrap router. *)
  | Rp_mapping of { group : string; rp : string option }
      (** The router's group-to-RP mapping changed; [None] means the group
          lost its mapping (all candidate state expired). *)
  | Rp_failover of { group : string; from_rp : string option; to_rp : string }
      (** Shared-tree state re-targeted from a failed or withdrawn RP to an
          alternate (section 3.9). *)
  | Fault_injected of { action : string }
      (** The harness perturbed the network; [action] is the rendered
          fault (e.g. ["link 3 down"]).  Emitted by the scenario DSL and
          the explorer so a trace interleaves protocol reactions with the
          faults that caused them. *)
  | Checkpoint_digest of { digest : string }
      (** Hex digest of the canonical global mroute/forwarding state at a
          scenario checkpoint — the state-equivalence key the explorer
          dedups on (see ARCHITECTURE.md). *)
  | Window_roll of { index : int; t_start : float; t_end : float }
      (** A measurement window closed: the workload harness rolled every
          windowed instrument in the metrics registry (see
          {!Pim_util.Metrics.roll}), snapshotting per-window rows for
          virtual time [[t_start, t_end)).  Interleaves the measurement
          cadence with the protocol events it aggregates. *)
  | Local_member of { group : string; iface : int }
      (** A host on [iface] joined [group] (PIM-SM; MOSPF, which floods
          a membership LSA, reports the local interface [-1]). *)
  | No_rp of { group : string }
      (** A local join is ignored for now: PIM-SM has no RP mapping for
          [group] yet, or CBT has no core configured. *)
  | Restart
      (** The router crashed and rebooted: its forwarding state is wiped
          and only configuration and local memberships survive. *)
  | Spt_bit of { group : string; source : string }
      (** The first packet from [source] arrived over the new shortest
          path: the transition {!Spt_switch} began is complete (section
          3.5, the SPT bit is set). *)
  | Rp_retarget of { group : string; rp : string }
      (** A downstream join named a different RP: the shared-tree entry
          moves toward [rp] (section 3.9). *)
  | Join_suppressed of { route : route }
      (** An overheard join to the same upstream suppresses this
          router's own periodic join for [route]. *)
  | Prune_override of { route : route; iface : int }
      (** An overheard prune on the LAN [iface] would cut traffic this
          router still needs: it sends a join to override it. *)
  | Rpf_change of { route : route; from_nbr : int option; to_nbr : int option }
      (** A unicast routing change moved [route]'s upstream neighbour
          (a node, [None] for unreachable) from [from_nbr] to [to_nbr]
          (section 3.8). *)
  | On_tree of { group : string }
      (** CBT: the join was acknowledged; this router is on [group]'s tree. *)
  | Flush of { group : string }
      (** CBT: the parent went silent, so the branch for [group] is
          flushed. *)
  | Quit of { group : string }
      (** CBT: no children or members remain; this router quits
          [group]'s tree. *)

val to_json : t -> Pim_util.Json.t
(** One flat object with a ["type"] discriminator: the event's name.  A
    name is the keyword of the occurrence (["join"], ["spt-switch"],
    ["pkt-drop"], ["member"], ...), and {!of_json} reads it back. *)

val of_json : Pim_util.Json.t -> (t, string) result
(** Inverse of {!to_json}; the error names the missing or ill-typed
    field. *)
