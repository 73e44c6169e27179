(* H6 suppressed. *)

(* pimlint: allow H6 — fixture: a suppressed site *)
let pim net ~rp_set = Pim_core.Deployment.create_static net ~rp_set
