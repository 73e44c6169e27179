(* Pin the qcheck exploration seed so [dune runtest] draws the same property
   cases on every run; export QCHECK_SEED to explore a different slice of the
   input space. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 1994)
    | None -> 1994
  in
  Random.State.make [| seed |]

(* Unit and property tests for Pim_util: PRNG, heaps, bitset, statistics,
   JSON writer. *)

module Prng = Pim_util.Prng
module Vec = Pim_util.Vec
module Bitset = Pim_util.Bitset
module Stats = Pim_util.Stats
module Json = Pim_util.Json

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 10 (fun _ -> Prng.bits64 a) in
  let ys = List.init 10 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_prng_copy () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_int_bounds () =
  let t = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int t 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_covers_range () =
  let t = Prng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int t 5) <- true
  done;
  Alcotest.(check bool) "all values drawn" true (Array.for_all Fun.id seen)

let test_int_in () =
  let t = Prng.create 11 in
  for _ = 1 to 200 do
    let v = Prng.int_in t (-3) 4 in
    Alcotest.(check bool) "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_float_bounds () =
  let t = Prng.create 13 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_sample () =
  let t = Prng.create 17 in
  for _ = 1 to 50 do
    let s = Prng.sample t 10 30 in
    Alcotest.(check int) "size" 10 (List.length s);
    Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq Int.compare s));
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s
  done

let test_sample_full () =
  let t = Prng.create 19 in
  let s = Prng.sample t 5 5 in
  Alcotest.(check (list int)) "whole range" [ 0; 1; 2; 3; 4 ] s

let test_sample_empty () =
  let t = Prng.create 19 in
  Alcotest.(check (list int)) "empty" [] (Prng.sample t 0 10)

let test_shuffle_is_permutation () =
  let t = Prng.create 23 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_exponential_positive () =
  let t = Prng.create 29 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential t 5. >= 0.)
  done

let test_exponential_mean () =
  let t = Prng.create 31 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.exponential t 4.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (mean > 3.6 && mean < 4.4)

(* Heap *)

let test_heap_basic () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ] (Heap.to_sorted_list h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_duplicates () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 2; 2; 1; 1; 3 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2; 3 ] (Heap.to_sorted_list h)

let test_heap_pop_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Heap.pop h)

let test_heap_drain_leaves_reusable () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 4; 2; 9 ];
  Alcotest.(check (list int)) "sorted" [ 2; 4; 9 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "empty afterwards" 0 (Heap.length h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  List.iter (Heap.push h) [ 7; 3 ];
  Alcotest.(check (list int)) "reusable" [ 3; 7 ] (Heap.to_sorted_list h)

(* Popped elements must not be retained by the heap's backing array: push
   boxed values from a helper (so no stack reference survives), pop them,
   and check the GC can collect them. *)
let test_heap_no_retention_after_pop () =
  let collected = ref 0 in
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let push_tracked k =
    let v = (k, ref k) in
    Gc.finalise (fun _ -> incr collected) v;
    Heap.push h v
  in
  List.iter push_tracked [ 3; 1; 2 ];
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (Heap.pop h))
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "all popped elements collected" 3 !collected

let test_heap_no_retention_after_clear () =
  let collected = ref 0 in
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let push_tracked k =
    let v = (k, ref k) in
    Gc.finalise (fun _ -> incr collected) v;
    Heap.push h v
  in
  List.iter push_tracked [ 5; 4; 6; 1 ];
  Heap.clear h;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "all cleared elements collected" 4 !collected

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort Int.compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap min under interleaved push/pop" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Heap.push h v;
            model := List.sort Int.compare (v :: !model);
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some x, m :: rest ->
              model := rest;
              x = m
            | _ -> false)
        ops)

(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "universe" 100 (Bitset.length b);
  Alcotest.(check bool) "initially empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem b 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 63; 64; 99 ] (Bitset.to_list b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal b);
  Bitset.clear b;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty b);
  Alcotest.(check int) "cardinal zero" 0 (Bitset.cardinal b)

let test_bitset_add_idempotent () =
  let b = Bitset.create 10 in
  Bitset.add b 5;
  Bitset.add b 5;
  Alcotest.(check int) "cardinal 1" 1 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset.add: index -1 out of [0,8)")
    (fun () -> Bitset.add b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset.mem: index 8 out of [0,8)")
    (fun () -> ignore (Bitset.mem b 8))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with list model" ~count:300
    QCheck.(list (pair bool (int_bound 127)))
    (fun ops ->
      let b = Bitset.create 128 in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (is_add, i) ->
          if is_add then begin
            Bitset.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = Hashtbl.fold (fun i () acc -> i :: acc) model [] |> List.sort Int.compare in
      Bitset.to_list b = expected && Bitset.cardinal b = List.length expected)

(* Json *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "float int" "2.0" (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "float frac" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_structures () =
  let v = Json.(Obj [ ("xs", Arr [ Int 1; Int 2 ]); ("s", Str "a\"b\n") ]) in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"s\":\"a\\\"b\\n\"}" (Json.to_string v);
  Alcotest.(check string) "empty obj" "{}" (Json.to_string (Json.Obj []));
  Alcotest.(check string) "empty arr" "[]" (Json.to_string (Json.Arr []))

(* Stats *)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  Alcotest.check feq "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.check feq "empty" 0. (Stats.mean [])

let test_stats_stddev () =
  Alcotest.check feq "stddev" 1. (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.check feq "singleton" 0. (Stats.stddev [ 5. ])

let test_stats_minmax () =
  Alcotest.check feq "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.check feq "max" 3. (Stats.maximum [ 3.; 1.; 2. ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50. (Stats.percentile 50. xs);
  Alcotest.check feq "p95" 95. (Stats.percentile 95. xs);
  Alcotest.check feq "p100" 100. (Stats.percentile 100. xs)

let test_stats_percentile_edges () =
  let xs = [ 7.; -3.; 5.; 1. ] in
  Alcotest.check feq "p0 is the minimum" (-3.) (Stats.percentile 0. xs);
  Alcotest.check feq "p100 is the maximum" 7. (Stats.percentile 100. xs);
  Alcotest.check feq "p0 singleton" 9. (Stats.percentile 0. [ 9. ]);
  Alcotest.check feq "p100 singleton" 9. (Stats.percentile 100. [ 9. ]);
  Alcotest.check feq "p50 unsorted negatives" 1. (Stats.percentile 50. xs)

let test_stats_percentile_sorted () =
  let arr = [| -3.; 1.; 5.; 7. |] in
  Alcotest.check feq "p0 is the minimum" (-3.) (Stats.percentile_sorted arr 0.);
  Alcotest.check feq "p100 is the maximum" 7. (Stats.percentile_sorted arr 100.);
  Alcotest.check feq "p50 nearest rank" 1. (Stats.percentile_sorted arr 50.);
  Alcotest.check feq "empty" 0. (Stats.percentile_sorted [||] 50.);
  (* The single-sort summary and the per-call percentile agree. *)
  let xs = [ 7.; -3.; 5.; 1. ] in
  let s = Stats.summarize xs in
  Alcotest.check feq "summary p50" (Stats.percentile 50. xs) s.Stats.p50;
  Alcotest.check feq "summary p95" (Stats.percentile 95. xs) s.Stats.p95;
  Alcotest.check feq "summary min = p0" (Stats.percentile 0. xs) s.Stats.min;
  Alcotest.check feq "summary max = p100" (Stats.percentile 100. xs) s.Stats.max

(* Windowed metrics *)

let test_metrics_windowed_roll () =
  let module M = Pim_util.Metrics in
  let m = M.create () in
  let c = M.wcounter m "joins" in
  let h = M.whistogram m "latency" in
  M.wincr c;
  M.wincr c ~by:2;
  M.wobserve h 1.0;
  M.wobserve h 3.0;
  Alcotest.(check int) "live count" 3 (M.wcounter_live c);
  Alcotest.(check int) "live samples" 2 (M.whistogram_live_count h);
  let w0 = M.roll m ~t_start:0. ~t_end:5. in
  Alcotest.(check int) "window index" 0 w0.M.index;
  Alcotest.(check int) "live reset" 0 (M.wcounter_live c);
  Alcotest.(check int) "samples dropped" 0 (M.whistogram_live_count h);
  (* Second window left empty on both instruments. *)
  let _w1 = M.roll m ~t_start:5. ~t_end:10. in
  Alcotest.(check int) "two windows" 2 (M.n_windows m);
  (match M.wcounter_rows c with
  | [ (wa, 3); (wb, 0) ] ->
    Alcotest.(check int) "row order oldest first" 0 wa.M.index;
    Alcotest.(check int) "second row" 1 wb.M.index
  | _ -> Alcotest.fail "expected two counter rows");
  (match M.whistogram_rows h with
  | [ (_, s0); (_, s1) ] ->
    Alcotest.(check int) "first window n" 2 s0.Stats.n;
    Alcotest.check feq "first window mean" 2. s0.Stats.mean;
    Alcotest.(check bool) "empty window is the typed empty row" true
      (s1 = Stats.empty_summary)
  | _ -> Alcotest.fail "expected two histogram rows")

let test_metrics_sliding_sum () =
  let module M = Pim_util.Metrics in
  let m = M.create () in
  let c = M.wcounter m "msgs" in
  List.iteri
    (fun i by ->
      M.wincr c ~by;
      ignore (M.roll m ~t_start:(float_of_int i) ~t_end:(float_of_int (i + 1))))
    [ 10; 20; 30 ];
  Alcotest.(check int) "last 1" 30 (M.sliding_sum c);
  Alcotest.(check int) "last 2" 50 (M.sliding_sum ~last:2 c);
  Alcotest.(check int) "last covers all" 60 (M.sliding_sum ~last:99 c)

let test_metrics_windowed_json () =
  let module M = Pim_util.Metrics in
  let m = M.create () in
  let c = M.wcounter m "joins" in
  M.wincr c ~by:4;
  ignore (M.roll m ~t_start:0. ~t_end:5.);
  let s = Json.to_string (M.to_json m) in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema v2" true (has "pim-metrics/2");
  Alcotest.(check bool) "wcounters section" true (has "\"wcounters\"");
  Alcotest.(check bool) "whistograms section" true (has "\"whistograms\"");
  Alcotest.(check bool) "row payload" true (has "\"count\":4")

let test_stats_empty_summary () =
  (* The documented contract: an empty window yields the typed empty row,
     not an exception or NaNs — workload windows at diurnal troughs can
     legitimately hold no samples. *)
  let s = Stats.summarize [] in
  Alcotest.(check bool) "summarize [] = empty_summary" true (s = Stats.empty_summary);
  Alcotest.(check int) "n" 0 Stats.empty_summary.Stats.n;
  List.iter
    (fun (name, v) -> Alcotest.check feq name 0. v)
    [
      ("mean", Stats.empty_summary.Stats.mean);
      ("stddev", Stats.empty_summary.Stats.stddev);
      ("min", Stats.empty_summary.Stats.min);
      ("max", Stats.empty_summary.Stats.max);
      ("p50", Stats.empty_summary.Stats.p50);
      ("p95", Stats.empty_summary.Stats.p95);
    ]

let test_stats_empty_is_nan_free () =
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v);
      Alcotest.check feq name 0. v)
    [
      ("mean", Stats.mean []);
      ("stddev", Stats.stddev []);
      ("stddev singleton", Stats.stddev [ 5. ]);
      ("minimum", Stats.minimum []);
      ("maximum", Stats.maximum []);
      ("p0", Stats.percentile 0. []);
      ("p50", Stats.percentile 50. []);
      ("p100", Stats.percentile 100. []);
    ];
  let s = Stats.summarize [] in
  Alcotest.(check int) "n" 0 s.Stats.n;
  List.iter
    (fun (name, v) -> Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [ ("mean", s.Stats.mean); ("sd", s.Stats.stddev); ("p50", s.Stats.p50); ("p95", s.Stats.p95) ]

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.check feq "mean" 2.5 s.Stats.mean;
  Alcotest.check feq "min" 1. s.Stats.min;
  Alcotest.check feq "max" 4. s.Stats.max

(* Vec *)

let test_vec_order_and_growth () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  (* Push order is iteration order — callback registration relies on it. *)
  Alcotest.(check (list int)) "to_list preserves push order" (List.init 100 Fun.id)
    (Vec.to_list v);
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "iter order" (List.init 100 Fun.id) (List.rev !seen);
  Alcotest.(check int) "get" 57 (Vec.get v 57);
  Alcotest.(check int) "fold" 4950 (Vec.fold_left ( + ) 0 v)

let test_vec_bounds_and_clear () =
  let v = Vec.create () in
  Vec.push v "a";
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)));
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v "b";
  Alcotest.(check (list string)) "usable after clear" [ "b" ] (Vec.to_list v)

(* Int_table against a Hashtbl model: replace, find, clear, keys,
   across several growths (keys up to 2^40, clustered and spread). *)
let prop_int_table_model =
  QCheck.Test.make ~name:"int table agrees with a Hashtbl" ~count:300
    QCheck.(list_of_size Gen.(int_range 50 400) (triple (int_bound 99) (int_bound 600) small_int))
    (fun ops ->
      let t = Pim_util.Int_table.create () and model = Hashtbl.create 64 in
      List.iter
        (fun (op, k, v) ->
          let k = if k mod 3 = 0 then k lsl 30 else k in
          match op with
          | 0 ->
            Pim_util.Int_table.clear t;
            Hashtbl.reset model
          | _ ->
            Pim_util.Int_table.replace t k v;
            Hashtbl.replace model k v)
        ops;
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort Int.compare in
      Array.to_list (Pim_util.Int_table.keys t) = keys
      && List.for_all (fun k -> Pim_util.Int_table.find t k = Hashtbl.find model k) keys
      && Pim_util.Int_table.find t 601 = 0)

let () =
  Alcotest.run "pim_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int_in bounds" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "sample distinct" `Quick test_sample;
          Alcotest.test_case "sample full range" `Quick test_sample_full;
          Alcotest.test_case "sample empty" `Quick test_sample_empty;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        ] );
      ( "vec",
        [
          Alcotest.test_case "order and growth" `Quick test_vec_order_and_growth;
          Alcotest.test_case "bounds and clear" `Quick test_vec_bounds_and_clear;
        ] );
      ("int-table", [ QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_int_table_model ]);
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "drain leaves reusable" `Quick test_heap_drain_leaves_reusable;
          Alcotest.test_case "no retention after pop" `Quick test_heap_no_retention_after_pop;
          Alcotest.test_case "no retention after clear" `Quick test_heap_no_retention_after_clear;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_heap_sorts;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_heap_interleaved;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_bitset_model;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "structures" `Quick test_json_structures;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile edges" `Quick test_stats_percentile_edges;
          Alcotest.test_case "percentile sorted" `Quick test_stats_percentile_sorted;
          Alcotest.test_case "empty inputs NaN-free" `Quick test_stats_empty_is_nan_free;
          Alcotest.test_case "empty summary row" `Quick test_stats_empty_summary;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "metrics-windowed",
        [
          Alcotest.test_case "roll" `Quick test_metrics_windowed_roll;
          Alcotest.test_case "sliding sum" `Quick test_metrics_sliding_sum;
          Alcotest.test_case "json v2" `Quick test_metrics_windowed_json;
        ] );
    ]
