(* H7 suppressed. *)

(* pimlint: allow H7 — fixture: a suppressed site *)
let eng = Pim_sim.Engine.create ()
