type node = int

type link_id = int

type iface = int

let no_node = -1

let no_iface = min_int

type link = {
  id : link_id;
  ends : node array;
  cost : int;
  delay : float;
  is_lan : bool;
}

type adjacency = {
  edge_start : int array;
  edge_nbr : node array;
  edge_link : link_id array;
  edge_cost : int array;
}

type t = {
  n : int;
  links : link array;
  adj : (iface * link_id) array array;  (* per node, indexed by iface *)
  end_ifaces : iface array array;  (* per link, parallel to [ends] *)
  flat : adjacency;
  max_cost : int;
}

type builder = {
  bn : int;
  mutable blinks : link list;  (* reversed *)
  mutable count : int;
}

let builder n =
  assert (n > 0);
  { bn = n; blinks = []; count = 0 }

let check_node b u =
  if u < 0 || u >= b.bn then invalid_arg (Printf.sprintf "Topology: node %d out of range" u)

let add_link b ends ~cost ~delay ~is_lan =
  List.iter (check_node b) (Array.to_list ends);
  if cost < 1 then invalid_arg (Printf.sprintf "Topology: link cost %d below 1" cost);
  let id = b.count in
  b.blinks <- { id; ends; cost; delay; is_lan } :: b.blinks;
  b.count <- b.count + 1;
  id

let add_p2p ?(cost = 1) ?(delay = 1.0) b u v =
  if u = v then invalid_arg "Topology.add_p2p: self loop";
  add_link b [| u; v |] ~cost ~delay ~is_lan:false

let add_lan ?(cost = 1) ?(delay = 1.0) b nodes =
  if nodes = [] then invalid_arg "Topology.add_lan: empty LAN";
  let sorted = List.sort_uniq Int.compare nodes in
  if List.length sorted <> List.length nodes then invalid_arg "Topology.add_lan: duplicate node";
  add_link b (Array.of_list nodes) ~cost ~delay ~is_lan:true

(* One directed edge per (node, interface, other end of its link), in
   node, interface and end order. *)
let flatten n links adj =
  let edge_start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    edge_start.(u + 1) <-
      Array.fold_left
        (fun acc (_, lid) -> acc + Array.length links.(lid).ends - 1)
        edge_start.(u) adj.(u)
  done;
  let m = edge_start.(n) in
  let edge_nbr = Array.make m 0 and edge_link = Array.make m 0 and edge_cost = Array.make m 0 in
  for u = 0 to n - 1 do
    let k = ref edge_start.(u) in
    Array.iter
      (fun (_, lid) ->
        let l = links.(lid) in
        Array.iter
          (fun v ->
            if v <> u then begin
              edge_nbr.(!k) <- v;
              edge_link.(!k) <- lid;
              edge_cost.(!k) <- l.cost;
              incr k
            end)
          l.ends)
      adj.(u)
  done;
  { edge_start; edge_nbr; edge_link; edge_cost }

let freeze b =
  let links = Array.of_list (List.rev b.blinks) in
  let counts = Array.make b.bn 0 in
  Array.iter (fun l -> Array.iter (fun u -> counts.(u) <- counts.(u) + 1) l.ends) links;
  let adj = Array.init b.bn (fun u -> Array.make counts.(u) (0, 0)) in
  let end_ifaces = Array.map (fun l -> Array.make (Array.length l.ends) 0) links in
  let next = Array.make b.bn 0 in
  Array.iter
    (fun l ->
      Array.iteri
        (fun k u ->
          adj.(u).(next.(u)) <- (next.(u), l.id);
          end_ifaces.(l.id).(k) <- next.(u);
          next.(u) <- next.(u) + 1)
        l.ends)
    links;
  {
    n = b.bn;
    links;
    adj;
    end_ifaces;
    flat = flatten b.bn links adj;
    max_cost = Array.fold_left (fun m l -> max m l.cost) 1 links;
  }

let n_nodes t = t.n

let n_links t = Array.length t.links

let link t lid = t.links.(lid)

let links t = t.links

let ifaces t u = t.adj.(u)

let link_of_iface t u i =
  if i < 0 || i >= Array.length t.adj.(u) then
    invalid_arg (Printf.sprintf "Topology.link_of_iface: node %d has no iface %d" u i);
  let _, lid = t.adj.(u).(i) in
  t.links.(lid)

let end_ifaces t lid = t.end_ifaces.(lid)

let adjacency t = t.flat

let max_cost t = t.max_cost

(* The interface on [lid] among [arr.(i..)], [no_iface] if none: a
   top-level loop, so a lookup allocates no closure. *)
let rec find_iface arr lid i =
  if i >= Array.length arr then no_iface
  else
    let iface, l = arr.(i) in
    if l = lid then iface else find_iface arr lid (i + 1)

let iface_of_link_opt t u lid =
  let i = find_iface t.adj.(u) lid 0 in
  if i = no_iface then None else Some i

let iface_of_link t u lid =
  let i = find_iface t.adj.(u) lid 0 in
  if i = no_iface then raise Not_found else i

let others_on_link t lid u =
  let l = t.links.(lid) in
  Array.to_list l.ends |> List.filter (fun v -> v <> u)

let rec others_from ends u k n =
  if k >= Array.length ends then n
  else others_from ends u (k + 1) (if Array.unsafe_get ends k <> u then n + 1 else n)

let count_others_on_link t lid u = others_from t.links.(lid).ends u 0 0

let neighbors t u =
  Array.to_list t.adj.(u)
  |> List.concat_map (fun (iface, lid) ->
         List.map (fun v -> (iface, v)) (others_on_link t lid u))

let degree t u = Array.length t.adj.(u)

let connected t =
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter (fun (_, v) -> dfs v) (neighbors t u)
    end
  in
  dfs 0;
  Array.for_all Fun.id seen

let pp ppf t =
  Format.fprintf ppf "topology: %d nodes, %d links@." t.n (Array.length t.links);
  Array.iter
    (fun l ->
      let ends = String.concat "," (List.map string_of_int (Array.to_list l.ends)) in
      Format.fprintf ppf "  link %d%s: {%s} cost=%d delay=%.3f@." l.id
        (if l.is_lan then " (lan)" else "")
        ends l.cost l.delay)
    t.links
