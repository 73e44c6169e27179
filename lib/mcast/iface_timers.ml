(* Slot [i + 1] holds interface [i]'s deadline, nan when [i] is absent:
   every float comparison with nan is false, so [live] and [expire] need
   no presence test of their own.  [count] is the number of non-nan
   slots. *)
type t = {
  mutable at : float array;
  mutable count : int;
}

let create () = { at = [||]; count = 0 }

let absent (d : float) = d <> d

let grow t k =
  let cap = Int.max 4 (Int.max (k + 1) (2 * Array.length t.at)) in
  let a = Array.make cap Float.nan in
  Array.blit t.at 0 a 0 (Array.length t.at);
  t.at <- a

let set t i d =
  if i < -1 then invalid_arg "Iface_timers.set: interface below -1";
  if absent d then invalid_arg "Iface_timers.set: nan deadline";
  let k = i + 1 in
  if k >= Array.length t.at then grow t k;
  if absent (Array.unsafe_get t.at k) then t.count <- t.count + 1;
  Array.unsafe_set t.at k d

let clear t i =
  let k = i + 1 in
  if k >= 0 && k < Array.length t.at && not (absent (Array.unsafe_get t.at k)) then begin
    Array.unsafe_set t.at k Float.nan;
    t.count <- t.count - 1
  end

let find t i =
  let k = i + 1 in
  if k >= 0 && k < Array.length t.at then begin
    let d = Array.unsafe_get t.at k in
    if absent d then raise Not_found else d
  end
  else raise Not_found

let live t i ~now =
  let k = i + 1 in
  k >= 0 && k < Array.length t.at && Array.unsafe_get t.at k > now

let expire t ~now =
  if t.count > 0 then
    for k = 0 to Array.length t.at - 1 do
      if Array.unsafe_get t.at k <= now then begin
        Array.unsafe_set t.at k Float.nan;
        t.count <- t.count - 1
      end
    done

(* [d < m] is false for a nan (absent) slot. *)
let earliest t =
  let m = ref infinity in
  if t.count > 0 then
    for k = 0 to Array.length t.at - 1 do
      let d = Array.unsafe_get t.at k in
      if d < !m then m := d
    done;
  !m

let count t = t.count
