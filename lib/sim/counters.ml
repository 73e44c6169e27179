type kind =
  | Jp_msgs_sent | Joins_sent | Prunes_sent | Registers_sent | Rp_reach_sent | Data_forwarded
  | Data_dropped_iif | Data_dup_suppressed | Data_dropped_no_state | Data_delivered_local
  | Unicast_forwarded | Spt_switches | Rp_failovers | Acks_sent | Echoes_sent | Quits_sent
  | Flushes | Data_encapsulated | Data_dropped_off_tree | Lsa_sent | Spf_runs | Bootstraps_sent
  | Bootstraps_forwarded | Adverts_sent | Elections_won | Mapping_changes

(* Declaration order; [index] and [names] follow it. *)
let all =
  [ Jp_msgs_sent; Joins_sent; Prunes_sent; Registers_sent; Rp_reach_sent; Data_forwarded;
    Data_dropped_iif; Data_dup_suppressed; Data_dropped_no_state; Data_delivered_local;
    Unicast_forwarded; Spt_switches; Rp_failovers; Acks_sent; Echoes_sent; Quits_sent; Flushes;
    Data_encapsulated; Data_dropped_off_tree; Lsa_sent; Spf_runs; Bootstraps_sent;
    Bootstraps_forwarded; Adverts_sent; Elections_won; Mapping_changes ]

let n_kinds = List.length all

let index = function
  | Jp_msgs_sent -> 0 | Joins_sent -> 1 | Prunes_sent -> 2 | Registers_sent -> 3
  | Rp_reach_sent -> 4 | Data_forwarded -> 5 | Data_dropped_iif -> 6
  | Data_dup_suppressed -> 7 | Data_dropped_no_state -> 8 | Data_delivered_local -> 9
  | Unicast_forwarded -> 10 | Spt_switches -> 11 | Rp_failovers -> 12 | Acks_sent -> 13
  | Echoes_sent -> 14 | Quits_sent -> 15 | Flushes -> 16 | Data_encapsulated -> 17
  | Data_dropped_off_tree -> 18 | Lsa_sent -> 19 | Spf_runs -> 20 | Bootstraps_sent -> 21
  | Bootstraps_forwarded -> 22 | Adverts_sent -> 23 | Elections_won -> 24
  | Mapping_changes -> 25

let names =
  [| "jp_msgs_sent"; "joins_sent"; "prunes_sent"; "registers_sent"; "rp_reach_sent";
     "data_forwarded"; "data_dropped_iif"; "data_dup_suppressed"; "data_dropped_no_state";
     "data_delivered_local"; "unicast_forwarded"; "spt_switches"; "rp_failovers"; "acks_sent";
     "echoes_sent"; "quits_sent"; "flushes"; "data_encapsulated"; "data_dropped_off_tree";
     "lsa_sent"; "spf_runs"; "bootstraps_sent"; "bootstraps_forwarded"; "adverts_sent";
     "elections_won"; "mapping_changes" |]

let name k = names.(index k)

(* Node-major: a node's kinds are adjacent, and a node outside
   [0, nodes) falls outside the array, so the bounds check rejects it. *)
type t = int array

let create ~nodes = Array.make (nodes * n_kinds) 0

let incr t ~node k =
  let i = (node * n_kinds) + index k in
  t.(i) <- t.(i) + 1

let add t ~node k n =
  let i = (node * n_kinds) + index k in
  t.(i) <- t.(i) + n

let get t ~node k = t.((node * n_kinds) + index k)

let total t k =
  let sum = ref 0 in
  let i = index k in
  for node = 0 to (Array.length t / n_kinds) - 1 do
    sum := !sum + t.((node * n_kinds) + i)
  done;
  !sum
