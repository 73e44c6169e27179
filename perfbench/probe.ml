let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns *. 1e-9

type cost = { wall_s : float; alloc_mb : float }

let measure f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let a1 = Gc.allocated_bytes () in
  (r, { wall_s = seconds (t1 - t0); alloc_mb = (a1 -. a0) /. 1e6 })

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let median = function
  | [] -> invalid_arg "Probe.median: empty list"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
