module Prng = Pim_util.Prng
module Bitset = Pim_util.Bitset
module Topology = Pim_graph.Topology
module Spt = Pim_graph.Spt
module Random_graph = Pim_graph.Random_graph

type row = {
  degree : float;
  spt_max_flows : float;
  cbt_max_flows : float;
  spt_stddev : float;
  cbt_stddev : float;
  trials : int;
}

let sat_add a b = if a = max_int || b = max_int then max_int else a + b

(* Optimal core for the group: minimise the worst sender-to-receiver delay
   max_s d(s,c) + max_r d(c,r) over all candidate nodes.  Distances are
   read from the per-node trees (symmetric link costs).  Cores that cannot
   reach every sender and member are considered only if no candidate
   reaches them all (partitioned topology), in which case the candidate
   missing the fewest endpoints — reachable eccentricity as tie-break —
   wins; the additions saturate at [max_int] so an unreachable endpoint can
   never wrap negative and "win" the minimisation. *)
let optimal_core trees ~senders ~members =
  let n = Array.length trees in
  let eccentricity c towards =
    List.fold_left (fun acc v -> max acc trees.(c).Spt.dist.(v)) 0 towards
  in
  let best = ref (-1) and best_d = ref max_int in
  for c = 0 to n - 1 do
    let d = sat_add (eccentricity c senders) (eccentricity c members) in
    if d < max_int && d < !best_d then begin
      best := c;
      best_d := d
    end
  done;
  if !best >= 0 then !best
  else begin
    (* No candidate reaches everyone: fall back to the fewest unreachable
       endpoints, then the smallest reachable eccentricity sum. *)
    let missing c towards =
      List.fold_left
        (fun acc v -> if trees.(c).Spt.dist.(v) = max_int then acc + 1 else acc)
        0 towards
    in
    let reach_ecc c towards =
      List.fold_left
        (fun acc v ->
          let d = trees.(c).Spt.dist.(v) in
          if d = max_int then acc else max acc d)
        0 towards
    in
    let best = ref 0 and best_miss = ref max_int and best_d = ref max_int in
    for c = 0 to n - 1 do
      let miss = missing c senders + missing c members in
      let d = reach_ecc c senders + reach_ecc c members in
      if miss < !best_miss || (miss = !best_miss && d < !best_d) then begin
        best := c;
        best_miss := miss;
        best_d := d
      end
    done;
    !best
  end

(* Scratch buffers reused across the [groups] iterations of one network
   trial, so the inner loop allocates nothing per group beyond the group
   itself. *)
type group_scratch = {
  mark : int array;  (** per-sender visited epoch for the SPT walk *)
  mutable epoch : int;
  on_tree : Bitset.t;  (** nodes of the current center-based tree *)
  subtree_members : int array;  (** members at-or-below a tree node *)
  edge_child : int array;  (** CBT edges, as the child node ... *)
  edge_link : int array;  (** ... and the link id of its parent edge *)
  mutable n_edges : int;
}

let make_group_scratch nodes =
  {
    mark = Array.make nodes 0;
    epoch = 0;
    on_tree = Bitset.create nodes;
    subtree_members = Array.make nodes 0;
    edge_child = Array.make nodes 0;
    edge_link = Array.make nodes 0;
    n_edges = 0;
  }

(* Walk the precomputed shortest-path tree of sender [s] from each member up
   to the root, adding one flow on every link of the covered sub-tree.  The
   epoch mark dedups shared path suffixes without clearing anything. *)
let add_spt_flows scratch flows (tree : Spt.tree) group =
  scratch.epoch <- scratch.epoch + 1;
  let epoch = scratch.epoch and mark = scratch.mark in
  let parent = tree.Spt.parent and via = tree.Spt.via in
  let src = tree.Spt.src in
  let rec up v =
    if v <> src && mark.(v) <> epoch then begin
      mark.(v) <- epoch;
      let p = parent.(v) in
      if p >= 0 then begin
        flows.(via.(v)) <- flows.(via.(v)) + 1;
        up p
      end
    end
  in
  Array.iter up group

(* Build the center-based tree for the group as flat edge arrays in
   [scratch], and count the members in each node's subtree.  Returns the
   number of members actually on the tree (reachable from the core). *)
let build_cbt scratch (core_tree : Spt.tree) group =
  let core = core_tree.Spt.src in
  Bitset.clear scratch.on_tree;
  Bitset.add scratch.on_tree core;
  scratch.n_edges <- 0;
  let cnt = scratch.subtree_members in
  let m_total = ref 0 in
  Array.iter
    (fun m ->
      if core_tree.Spt.dist.(m) <> max_int then begin
        incr m_total;
        let rec up v =
          if v <> core then begin
            if not (Bitset.mem scratch.on_tree v) then begin
              Bitset.add scratch.on_tree v;
              cnt.(v) <- 0;
              let lid = core_tree.Spt.via.(v) in
              if lid >= 0 then begin
                scratch.edge_child.(scratch.n_edges) <- v;
                scratch.edge_link.(scratch.n_edges) <- lid;
                scratch.n_edges <- scratch.n_edges + 1
              end
            end;
            cnt.(v) <- cnt.(v) + 1;
            let p = core_tree.Spt.parent.(v) in
            if p >= 0 then up p
          end
        in
        up m
      end)
    group;
  !m_total

(* A tree edge (parent, child) carries an on-tree sender's traffic exactly
   when the child's subtree does not hold the whole group: if the sender is
   below the edge some target is above it, and if the sender is above it the
   subtree holds a target (every tree node has at least one member below).
   So all on-tree senders cover the same edge set, and the per-sender DFS of
   the old implementation collapses to one pass over the edges. *)
let add_cbt_flows scratch flows ~m_total ~sender_count =
  for i = 0 to scratch.n_edges - 1 do
    if scratch.subtree_members.(scratch.edge_child.(i)) < m_total then begin
      let lid = scratch.edge_link.(i) in
      flows.(lid) <- flows.(lid) + sender_count
    end
  done

let add_off_tree_sender_flows scratch flows (core_tree : Spt.tree) s =
  (* Off-tree sender (possible only on a partitioned topology): traffic
     enters at the core and covers the whole tree plus the unicast path to
     the core. *)
  let core = core_tree.Spt.src in
  let rec up v =
    let p = core_tree.Spt.parent.(v) in
    if v <> core && p >= 0 then begin
      let lid = core_tree.Spt.via.(v) in
      flows.(lid) <- flows.(lid) + 1;
      up p
    end
  in
  up s;
  for i = 0 to scratch.n_edges - 1 do
    let lid = scratch.edge_link.(i) in
    flows.(lid) <- flows.(lid) + 1
  done

let network_trial prng ~nodes ~groups ~members ~senders ~degree =
  let topo = Random_graph.generate ~prng ~nodes ~degree () in
  let trees = Array.init nodes (fun u -> Spt.single_source topo u) in
  let n_links = Topology.n_links topo in
  let spt_flows = Array.make n_links 0 in
  let cbt_flows = Array.make n_links 0 in
  let scratch = make_group_scratch nodes in
  for _ = 1 to groups do
    let group = Array.of_list (Random_graph.pick_members ~prng ~nodes ~count:members) in
    Prng.shuffle prng group;
    let member_list = Array.to_list group in
    let sender_list = Array.to_list (Array.sub group 0 senders) in
    (* Shortest-path trees: each sender's traffic covers its own tree. *)
    List.iter (fun s -> add_spt_flows scratch spt_flows trees.(s) group) sender_list;
    (* Center-based tree: one shared tree rooted at the optimal core. *)
    let core = optimal_core trees ~senders:sender_list ~members:member_list in
    let core_tree = trees.(core) in
    let m_total = build_cbt scratch core_tree group in
    let on_tree_senders, off_tree_senders =
      List.partition_map
        (fun s ->
          if Bitset.mem scratch.on_tree s then Either.Left s else Either.Right s)
        sender_list
    in
    add_cbt_flows scratch cbt_flows ~m_total
      ~sender_count:(List.length on_tree_senders);
    List.iter (add_off_tree_sender_flows scratch cbt_flows core_tree) off_tree_senders
  done;
  ( float_of_int (Array.fold_left max 0 spt_flows),
    float_of_int (Array.fold_left max 0 cbt_flows) )

let run ?(nodes = 50) ?(groups = 300) ?(members = 40) ?(senders = 32) ?(trials = 30)
    ?(degrees = [ 3.; 4.; 5.; 6.; 7.; 8. ]) ~seed () =
  if trials < 1 then invalid_arg "Fig2b.run: trials must be >= 1";
  if groups < 1 then invalid_arg "Fig2b.run: groups must be >= 1";
  if senders < 1 then invalid_arg "Fig2b.run: senders must be >= 1";
  if senders > members then invalid_arg "Fig2b.run: senders must be members";
  let prng = Prng.create seed in
  List.map
    (fun degree ->
      let stream = Prng.split prng in
      let results =
        List.init trials (fun _ -> network_trial stream ~nodes ~groups ~members ~senders ~degree)
      in
      let spt = List.map fst results and cbt = List.map snd results in
      {
        degree;
        spt_max_flows = Pim_util.Stats.mean spt;
        cbt_max_flows = Pim_util.Stats.mean cbt;
        spt_stddev = Pim_util.Stats.stddev spt;
        cbt_stddev = Pim_util.Stats.stddev cbt;
        trials;
      })
    degrees
  (* Canonical report order: ascending degree, independent of how the
     caller ordered the sweep list. *)
  |> List.stable_sort (fun a b -> Float.compare a.degree b.degree)

let pp_rows ppf rows =
  Format.fprintf ppf "# Figure 2(b): max traffic flows on any link (300 groups, 40 members, 32 senders)@.";
  Format.fprintf ppf "# degree  spt_max_flows  cbt_max_flows  spt_sd  cbt_sd  trials@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%6.1f  %13.1f  %13.1f  %6.1f  %6.1f  %d@." r.degree r.spt_max_flows
        r.cbt_max_flows r.spt_stddev r.cbt_stddev r.trials)
    rows
