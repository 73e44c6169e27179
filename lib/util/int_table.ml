type t = {
  mutable keys : int array;  (* -1 marks a free slot *)
  mutable values : int array;
  mutable bits : int;  (* 2^bits slots *)
  mutable size : int;
}

let create () = { keys = Array.make 64 (-1); values = Array.make 64 0; bits = 6; size = 0 }

(* The slot holding [k], or the free slot where it belongs.  A top-level
   recursion: a local one would be a closure per call. *)
let rec probe keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' < 0 then i else probe keys mask k ((i + 1) land mask)

(* The search starts at the top [bits] bits of k times 2^63/phi. *)
let slot t k =
  probe t.keys (Array.length t.keys - 1) k ((k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits))

let find t k =
  let i = slot t k in
  if t.keys.(i) < 0 then 0 else t.values.(i)

let grow t =
  let keys = t.keys and values = t.values in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) (-1);
  t.values <- Array.make (1 lsl t.bits) 0;
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 then begin
      let j = slot t k in
      t.keys.(j) <- k;
      t.values.(j) <- values.(i)
    end
  done

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t k in
  if t.keys.(i) >= 0 then t.values.(i) <- v
  else begin
    let i =
      if 4 * (t.size + 1) <= 3 * Array.length t.keys then i
      else begin
        grow t;
        slot t k
      end
    in
    t.keys.(i) <- k;
    t.values.(i) <- v;
    t.size <- t.size + 1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  Array.fill t.values 0 (Array.length t.values) 0;
  t.size <- 0

let keys t =
  let a = Array.make t.size 0 and n = ref 0 in
  Array.iter
    (fun k ->
      if k >= 0 then begin
        a.(!n) <- k;
        incr n
      end)
    t.keys;
  Array.sort Int.compare a;
  a
