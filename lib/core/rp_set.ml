module Group = Pim_net.Group

module GroupMap = Map.Make (Group)

type t = Pim_net.Addr.t list GroupMap.t

let empty = GroupMap.empty

let add t g rps = GroupMap.add g rps t

let of_list l = List.fold_left (fun acc (g, rps) -> add acc g rps) empty l

let single g rp = of_list [ (g, [ rp ]) ]

let rps t g = match GroupMap.find g t with rps -> rps | exception Not_found -> []

let is_sparse t g = rps t g <> []

(* The fold visits keys in ascending order; consing reverses, so restore
   the canonical ascending order the interface promises. *)
let groups t = GroupMap.fold (fun g _ acc -> g :: acc) t [] |> List.rev
