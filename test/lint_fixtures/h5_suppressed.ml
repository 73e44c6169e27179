(* H5 suppressed. *)

let first_handler hs pkt = Vec.get hs 0 pkt (* pimlint: allow H5 — one call at start-up *)
