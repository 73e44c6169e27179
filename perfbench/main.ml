(* The simulator's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload's entry point and set-up calls
   for S seconds and reports the end-to-end metrics; with --trace 1 it
   alternates untraced runs with runs that time every layer from outside
   and reports the per-layer metrics.  Human-readable lines come first;
   the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.  See perfbench/README.md. *)

module Suite = Perfbench.Suite

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" (List.map (fun (w : Suite.t) -> w.Suite.name) Suite.workloads));
  exit 2

let parse argv =
  let rec go ((w, seed, seconds, trace) as acc) = function
    | [] -> acc
    | "--workload" :: v :: rest -> go (Some v, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some s -> go (w, s, seconds, trace) rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0. -> go (w, seed, s, trace) rest
      | Some _ | None -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go (w, seed, seconds, String.equal v "1") rest
    | _ -> usage ()
  in
  (* Seed 0 selects simulator seed 1994, the first of every pool. *)
  go (None, 0, 10., false) argv

let () =
  let name, seed, seconds, trace = parse (List.tl (Array.to_list Sys.argv)) in
  let w =
    let named n =
      List.find_opt (fun (w : Suite.t) -> String.equal w.Suite.name n) Suite.workloads
    in
    match Option.bind name named with
    | Some w -> w
    | None -> usage ()
  in
  let r =
    if trace then Suite.run_traced w ~seed ~seconds else Suite.run_untraced w ~seed ~seconds
  in
  let units = if trace then Suite.per_layer else Suite.end_to_end in
  Printf.printf "# %s seed=%d trace=%d samples=%d fail_frac=%g\n" w.Suite.name seed
    (if trace then 1 else 0) r.Suite.samples
    (float_of_int r.Suite.failed /. float_of_int r.Suite.attempted);
  List.iter
    (fun (metric, v) -> Printf.printf "%-28s %16.9g %s\n" metric v (List.assoc metric units))
    r.Suite.metrics;
  let open Pim_util.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.Suite.correct);
            ("attempted", Int r.Suite.attempted);
            ("failed", Int r.Suite.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (metric, v) ->
                     (metric, Obj [ ("value", Float v); ("unit", Str (List.assoc metric units)) ]))
                   r.Suite.metrics) );
          ]))
