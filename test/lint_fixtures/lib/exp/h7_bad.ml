(* H7 positive: an experiment building its own engine, applied directly
   and through a partial application. *)

let run () =
  let eng = Pim_sim.Engine.create () in
  Pim_sim.Engine.run ~until:10. eng

let fresh = Engine.create
