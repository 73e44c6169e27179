(* H6 suppressed. *)

(* pimlint: allow H6 — sends from distinct hosts (~host) *)
let pim net ~rp_set = Pim_core.Deployment.create_static net ~rp_set
