(* H7 clean: the experiment runs a program through Dsl.run; reading the
   outcome is not running an engine. *)

let run program = Dsl.run ~protocol:Stack.Pim_sm program

let deliveries (o : Dsl.outcome) = o.Dsl.deliveries
