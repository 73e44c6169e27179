let capacity = 256

(* [ids] is a circular buffer of the last [len] ids recorded, oldest at
   [next] once it is full.  It stays linear ([next = len]) while it
   grows, so doubling is one blit, and wraps only at [capacity].  [top]
   is the largest id held ([min_int] when empty): an id above it is fresh
   without a scan. *)
type t = {
  mutable ids : int array;
  mutable len : int;
  mutable next : int;
  mutable top : int;
}

let create () = { ids = [||]; len = 0; next = 0; top = min_int }

(* Top-level recursions with explicit arguments: a scan allocates
   nothing. *)
let rec mem_from ids n id i = i < n && (Array.unsafe_get ids i = id || mem_from ids n id (i + 1))

let rec max_from ids n i m =
  if i >= n then m
  else
    let x = Array.unsafe_get ids i in
    max_from ids n (i + 1) (if x > m then x else m)

let seen t id = id <= t.top && mem_from t.ids t.len id 0

let grow t =
  let cap = Array.length t.ids in
  let a = Array.make (Int.max 8 (2 * cap)) 0 in
  Array.blit t.ids 0 a 0 cap;
  t.ids <- a

let record t id =
  if t.len = Array.length t.ids && t.len < capacity then grow t;
  if t.len < Array.length t.ids then begin
    Array.unsafe_set t.ids t.next id;
    t.len <- t.len + 1;
    if id > t.top then t.top <- id
  end
  else begin
    (* Full at the cap: [id] replaces the oldest. *)
    let old = Array.unsafe_get t.ids t.next in
    Array.unsafe_set t.ids t.next id;
    if id >= t.top then t.top <- id
    else if old = t.top then t.top <- max_from t.ids capacity 0 min_int
  end;
  t.next <- (t.next + 1) land (capacity - 1)

let length t = t.len

let largest t = t.top

let slots t = Array.length t.ids
