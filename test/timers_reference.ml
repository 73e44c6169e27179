(* Per-interface soft state as the protocols kept it before
   [Pim_mcast.Iface_timers]: a hash table from interface to deadline,
   aged by folding out the expired bindings, sorting them and removing
   each.  Kept as the reference the timer table is checked against
   (test_mcast's [timers] properties). *)

type t = (int, float) Hashtbl.t

let create () : t = Hashtbl.create 4

let set t i d = Hashtbl.replace t i d

let clear t i = Hashtbl.remove t i

let find t i = Hashtbl.find t i

let live t i ~now =
  Hashtbl.length t > 0 && match Hashtbl.find t i with d -> d > now | exception Not_found -> false

let expire t ~now =
  if Hashtbl.length t > 0 then
    Hashtbl.fold (fun i d acc -> if d <= now then i :: acc else acc) t []
    |> List.sort Int.compare
    |> List.iter (Hashtbl.remove t)

let count t = Hashtbl.length t
