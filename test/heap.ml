(* Slots at or beyond [size] always hold [None]: [pop] and [to_sorted_list]
   overwrite vacated slots and [clear] blanks the array, so a long-lived heap
   never retains popped elements for the GC. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let get t i =
  match t.data.(i) with
  | Some x -> x
  | None -> assert false

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap None in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.cmp (get t l) (get t i) < 0 then l else i in
  let smallest =
    if r < t.size && t.cmp (get t r) (get t smallest) < 0 then r else smallest
  in
  if smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(smallest);
    t.data.(smallest) <- tmp;
    sift_down t smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- Some x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    t.size <- t.size - 1;
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    Some top
  end

let peek t = if t.size = 0 then None else Some (get t 0)

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.size <- 0

let to_sorted_list t =
  let rec drain acc =
    match pop t with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
