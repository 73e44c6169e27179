(* H6 positive: an experiment building its own deployments, applied
   directly and through a partial application, and its own BSR election. *)

let pim net ~rp_set = Pim_core.Deployment.create_static ~config:Pim_core.Config.fast net ~rp_set

let mospf = Pim_mospf.Router.Deployment.create ?trace:None

let election net ~ribs ~roles = Pim_core.Bsr.deploy ~config:Pim_core.Bsr.fast ~net ~ribs ~roles ()
