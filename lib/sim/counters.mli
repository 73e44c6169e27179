(** Per-node protocol counters: the one vocabulary every router counts in.

    The paper compares protocols by state, control messages and data
    packets handled, summed over the network.  Every router deployed on a
    {!Net} counts into that net's table ({!Net.counters}), one slot per
    (node, kind).  A kind means the same thing whichever protocol counts
    it, so a network-wide {!total} needs no per-protocol record.  Two
    deployments sharing a net count into the same table: they must sit on
    distinct nodes (an interoperation border) or count disjoint kinds
    (PIM-SM routers and BSR agents).

    Deliberately not {!Pim_util.Metrics} instruments: experiments export
    that registry, and a row per counter would change every export. *)

type kind =
  | Jp_msgs_sent  (** PIM-SM Join/Prune messages transmitted *)
  | Joins_sent
      (** PIM-SM join-list entries; dense-mode joins and grafts; CBT
          JOIN-REQUESTs *)
  | Prunes_sent  (** PIM-SM prune-list entries; dense-mode prunes *)
  | Registers_sent
  | Rp_reach_sent
  | Data_forwarded  (** data-packet link transmissions *)
  | Data_dropped_iif  (** failed incoming-interface check *)
  | Data_dup_suppressed
      (** shared-tree copies suppressed by PIM-SM's identity ring during
          the RP-tree to shortest-path-tree switchover *)
  | Data_dropped_no_state  (** no matching entry (sparse mode drops) *)
  | Data_delivered_local  (** handed to local members *)
  | Unicast_forwarded
  | Spt_switches
  | Rp_failovers
  | Acks_sent  (** CBT JOIN-ACKs *)
  | Echoes_sent  (** CBT ECHO-REQUESTs *)
  | Quits_sent  (** CBT QUIT-REQUESTs *)
  | Flushes  (** CBT FLUSH-TREEs *)
  | Data_encapsulated  (** CBT data tunnelled to the core by a non-member sender *)
  | Data_dropped_off_tree
  | Lsa_sent  (** MOSPF membership-LSA transmissions (flooding) *)
  | Spf_runs
      (** MOSPF per-router forwarding plans computed: one source-tree
          Dijkstra each in the modelled protocol *)
  | Bootstraps_sent  (** originations by elected BSRs *)
  | Bootstraps_forwarded  (** accepted bootstrap floods re-sent *)
  | Adverts_sent  (** candidate-RP advert transmissions *)
  | Elections_won  (** candidate-BSR step-ups *)
  | Mapping_changes  (** watched-group RP-mapping transitions *)

val all : kind list
(** Every kind, in declaration order. *)

val name : kind -> string
(** The kind in snake case: [name Jp_msgs_sent = "jp_msgs_sent"]. *)

type t

val create : nodes:int -> t
(** All-zero counters for nodes [0 .. nodes-1]. *)

val incr : t -> node:int -> kind -> unit
(** Allocates nothing.
    @raise Invalid_argument if [node] is out of range (every operation). *)

val add : t -> node:int -> kind -> int -> unit

val get : t -> node:int -> kind -> int

val total : t -> kind -> int
(** Sum over every node. *)
