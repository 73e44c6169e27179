module Fwd = Pim_mcast.Fwd
module Iface_timers = Pim_mcast.Iface_timers

type iface = Pim_graph.Topology.iface

let iface_or_none = function Some i -> i | None -> Pim_graph.Topology.no_iface

let yield f x y z ~now ~pruned ~mask ~skip1 ~skip2 i n =
  if i <> skip1 && i <> skip2 && not (mask && Iface_timers.live pruned i ~now) then begin
    f x y z i;
    n + 1
  end
  else n

(* Merge the oifs of [own] and [inh] that are live for their entries
   [own_e] and [inh_e] ({!Fwd.is_live}), both ascending, each interface
   once, yielding the ones outside [skip1], [skip2] and — when [mask] —
   [pruned].  Top-level recursion with explicit arguments rather than a
   local closure: the walk allocates nothing. *)
let rec merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e own ~inh_e inh n =
  match (own, inh) with
  | o :: own', _ when not (Fwd.is_live own_e o ~now) ->
    merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e own' ~inh_e inh n
  | _, o :: inh' when not (Fwd.is_live inh_e o ~now) ->
    merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e own ~inh_e inh' n
  | [], [] -> n
  | (o : Fwd.oif) :: own', [] ->
    let n = yield f x y z ~now ~pruned ~mask ~skip1 ~skip2 o.Fwd.iface n in
    merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e own' ~inh_e [] n
  | [], (o : Fwd.oif) :: inh' ->
    let n = yield f x y z ~now ~pruned ~mask ~skip1 ~skip2 o.Fwd.iface n in
    merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e [] ~inh_e inh' n
  | a :: own', b :: inh' ->
    let i = Int.min a.Fwd.iface b.Fwd.iface in
    let n = yield f x y z ~now ~pruned ~mask ~skip1 ~skip2 i n in
    let own = if a.Fwd.iface = i then own' else own in
    let inh = if b.Fwd.iface = i then inh' else inh in
    merge f x y z ~now ~pruned ~mask ~skip1 ~skip2 ~own_e own ~inh_e inh n

let effective f x y z ~now ~pruned ~star ~exclude (e : Fwd.entry) =
  let iif = iface_or_none e.Fwd.iif in
  if Fwd.is_star e then
    merge f x y z ~now ~pruned ~mask:false ~skip1:iif ~skip2:exclude ~own_e:e e.Fwd.oifs ~inh_e:e [] 0
  else
    let own = if e.Fwd.rp_bit then [] else e.Fwd.oifs in
    match star with
    | Some s ->
      merge f x y z ~now ~pruned ~mask:true ~skip1:iif ~skip2:exclude ~own_e:e own ~inh_e:s
        s.Fwd.oifs 0
    | None -> merge f x y z ~now ~pruned ~mask:true ~skip1:iif ~skip2:exclude ~own_e:e own ~inh_e:e [] 0

let shared f x y z ~now ~pruned ~(star : Fwd.entry) ~exclude =
  merge f x y z ~now ~pruned ~mask:true ~skip1:Pim_graph.Topology.no_iface ~skip2:exclude
    ~own_e:star [] ~inh_e:star star.Fwd.oifs 0

let push acc () () i = acc := i :: !acc

let effective_list ~now ~pruned ~star ~exclude e =
  let acc = ref [] in
  ignore (effective push acc () () ~now ~pruned ~star ~exclude e);
  List.rev !acc

let shared_list ~now ~pruned ~star ~exclude =
  let acc = ref [] in
  ignore (shared push acc () () ~now ~pruned ~star ~exclude);
  List.rev !acc
