(* The identity window as PIM-SM's switchover suppression defines it: a
   FIFO of the last 256 ids recorded, duplicates included.  Kept as the
   reference [Pim_mcast.Id_ring] is checked against (test_mcast's [ring]
   property). *)

type t = int Queue.t

let capacity = 256

let create () : t = Queue.create ()

let record t id =
  Queue.push id t;
  if Queue.length t > capacity then ignore (Queue.pop t)

let seen t id = Queue.fold (fun found x -> found || x = id) false t

let length t = Queue.length t

let largest t = Queue.fold Int.max min_int t
