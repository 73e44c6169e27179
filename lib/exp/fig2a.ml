module Prng = Pim_util.Prng
module Spt = Pim_graph.Spt
module Center = Pim_graph.Center
module Random_graph = Pim_graph.Random_graph

type row = {
  degree : float;
  mean_ratio : float;
  stddev : float;
  min_ratio : float;
  max_ratio : float;
  trials : int;
}

(* [scratch] and [apsp] are working storage reused across all trials of a
   degree: one Dijkstra scratch and one n x n distance matrix, instead of
   fresh arrays for every one of the 500 x 6 graphs. *)
let trial prng ~scratch ~apsp ~nodes ~members ~degree =
  let topo = Random_graph.generate ~prng ~nodes ~degree () in
  let group = Random_graph.pick_members ~prng ~nodes ~count:members in
  Spt.all_pairs_into scratch topo apsp;
  (* Members are both senders and receivers, as in the paper's setup. *)
  let spt = Center.spt_max_delay apsp ~senders:group ~receivers:group in
  let _core, cbt = Center.optimal apsp ~senders:group ~receivers:group in
  if spt = 0 then None else Some (float_of_int cbt /. float_of_int spt)

(* The 500x6 trial sweep is embarrassingly parallel.  Determinism is
   preserved under any distribution of trials to domains by fixing the
   randomness BEFORE fanning out: every trial gets its own PRNG stream,
   split from the degree's stream in trial order, and every result lands
   in its trial's slot of a results array.  Aggregation then reads the
   slots in trial order, so the rows are byte-for-byte identical whether
   [domains] is 1 or 32.  Each domain allocates its own Dijkstra scratch
   and distance matrix; trial slots are disjoint, so the only sharing is
   read-only. *)
let run ?(nodes = 50) ?(members = 10) ?(trials = 500) ?(degrees = [ 3.; 4.; 5.; 6.; 7.; 8. ])
    ?(domains = 1) ~seed () =
  if trials < 1 then invalid_arg "Fig2a.run: trials must be >= 1";
  (* One member has no delay to compare: every trial would be skipped. *)
  if members < 2 then invalid_arg "Fig2a.run: members must be >= 2";
  if domains < 1 then invalid_arg "Fig2a.run: domains must be >= 1";
  let prng = Prng.create seed in
  List.map
    (fun degree ->
      let dstream = Prng.split prng in
      (* Explicit loop: [Array.init]'s evaluation order is unspecified,
         and the split order IS the randomness assignment. *)
      let trial_prngs = Array.make trials dstream in
      for i = 0 to trials - 1 do
        trial_prngs.(i) <- Prng.split dstream
      done;
      let results = Array.make trials None in
      let run_range lo hi =
        let scratch = Spt.make_scratch ~n:nodes in
        let apsp = Array.init nodes (fun _ -> Array.make nodes max_int) in
        for i = lo to hi - 1 do
          results.(i) <- trial trial_prngs.(i) ~scratch ~apsp ~nodes ~members ~degree
        done
      in
      let nd = Int.min domains (Int.max 1 trials) in
      if nd <= 1 then run_range 0 trials
      else
        List.init nd (fun k ->
            let lo = k * trials / nd and hi = (k + 1) * trials / nd in
            Domain.spawn (fun () -> run_range lo hi))
        |> List.iter Domain.join;
      let ratios = Array.to_list results |> List.filter_map Fun.id in
      let s = Pim_util.Stats.summarize ratios in
      {
        degree;
        mean_ratio = s.Pim_util.Stats.mean;
        stddev = s.Pim_util.Stats.stddev;
        min_ratio = s.Pim_util.Stats.min;
        max_ratio = s.Pim_util.Stats.max;
        trials = List.length ratios;
      })
    degrees

let pp_rows ppf rows =
  Format.fprintf ppf "# Figure 2(a): max delay, optimal center-based tree / shortest-path trees@.";
  Format.fprintf ppf "# degree  mean_ratio  stddev  min  max  trials@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%6.1f  %10.4f  %6.4f  %5.3f  %5.3f  %d@." r.degree r.mean_ratio
        r.stddev r.min_ratio r.max_ratio r.trials)
    rows
