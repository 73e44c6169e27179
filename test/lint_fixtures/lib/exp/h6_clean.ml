(* H6 clean: the experiment deploys through Stack.create_many; reading
   an existing deployment is not a deployment. *)

let view net group =
  snd (List.hd (Stack.create_many ~placement:[ (group, [ 0 ]) ] ~groups:[ group ] ~net Stack.Pim_sm))

let entries dep = Pim_core.Deployment.total_entries dep
