(* H6 suppressed. *)

(* pimlint: allow H6 — reads rp_failovers from the routers' stats *)
let pim net ~rp_set = Pim_core.Deployment.create_static net ~rp_set
