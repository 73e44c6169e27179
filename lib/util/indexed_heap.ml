(* Slot [i] of [keys]/[elts] is one heap entry; [pos.(e)] maps an element id
   back to its slot (or -1 when absent) so decrease_key can find it in O(1).
   Ties on the key compare on the element id, which keeps every operation —
   and therefore Dijkstra settle order — fully deterministic. *)
type t = {
  keys : int array;
  elts : int array;
  pos : int array;
  mutable size : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Indexed_heap.create: negative capacity";
  {
    keys = Array.make capacity 0;
    elts = Array.make capacity 0;
    pos = Array.make capacity (-1);
    size = 0;
  }

let capacity t = Array.length t.pos

let length t = t.size

let is_empty t = t.size = 0

let mem t e = e >= 0 && e < Array.length t.pos && t.pos.(e) >= 0

let key t e =
  if mem t e then Some t.keys.(t.pos.(e)) else None

let less t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.elts.(i) < t.elts.(j))

let swap t i j =
  let ki = t.keys.(i) and ei = t.elts.(i) in
  t.keys.(i) <- t.keys.(j);
  t.elts.(i) <- t.elts.(j);
  t.keys.(j) <- ki;
  t.elts.(j) <- ei;
  t.pos.(t.elts.(i)) <- i;
  t.pos.(t.elts.(j)) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && less t l i then l else i in
  let smallest = if r < t.size && less t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let check_elt t e name =
  if e < 0 || e >= Array.length t.pos then
    invalid_arg (Printf.sprintf "Indexed_heap.%s: element %d out of capacity %d" name e (Array.length t.pos))

let insert t e ~key =
  check_elt t e "insert";
  if t.pos.(e) >= 0 then invalid_arg "Indexed_heap.insert: element already present";
  let i = t.size in
  t.keys.(i) <- key;
  t.elts.(i) <- e;
  t.pos.(e) <- i;
  t.size <- i + 1;
  sift_up t i

let decrease_key t e ~key =
  check_elt t e "decrease_key";
  let i = t.pos.(e) in
  if i < 0 then invalid_arg "Indexed_heap.decrease_key: element not present";
  if key > t.keys.(i) then invalid_arg "Indexed_heap.decrease_key: key increase";
  t.keys.(i) <- key;
  sift_up t i

let push t e ~key =
  check_elt t e "push";
  let i = t.pos.(e) in
  if i < 0 then insert t e ~key
  else if key < t.keys.(i) then begin
    t.keys.(i) <- key;
    sift_up t i
  end

let peek_min t = if t.size = 0 then None else Some (t.elts.(0), t.keys.(0))

let take_min t =
  if t.size = 0 then -1
  else begin
    let e = t.elts.(0) in
    t.pos.(e) <- -1;
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.size in
      t.keys.(0) <- t.keys.(last);
      t.elts.(0) <- t.elts.(last);
      t.pos.(t.elts.(0)) <- 0;
      sift_down t 0
    end;
    e
  end

let pop_min t =
  if t.size = 0 then None
  else
    let k = t.keys.(0) in
    Some (take_min t, k)

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.elts.(i)) <- -1
  done;
  t.size <- 0
