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

(* Tests for Pim_graph: topology, generators, Dijkstra, trees, centers. *)

module Topology = Pim_graph.Topology
module Classic = Pim_graph.Classic
module Random_graph = Pim_graph.Random_graph
module Spt = Pim_graph.Spt
module Tree = Pim_graph.Tree
module Center = Pim_graph.Center
module Prng = Pim_util.Prng

(* Topology *)

let test_builder_p2p () =
  let b = Topology.builder 3 in
  let l01 = Topology.add_p2p b 0 1 in
  let l12 = Topology.add_p2p ~cost:5 ~delay:2.5 b 1 2 in
  let t = Topology.freeze b in
  Alcotest.(check int) "nodes" 3 (Topology.n_nodes t);
  Alcotest.(check int) "links" 2 (Topology.n_links t);
  Alcotest.(check int) "cost default" 1 (Topology.link t l01).Topology.cost;
  Alcotest.(check int) "cost set" 5 (Topology.link t l12).Topology.cost;
  Alcotest.(check (float 1e-9)) "delay set" 2.5 (Topology.link t l12).Topology.delay;
  Alcotest.(check int) "deg 0" 1 (Topology.degree t 0);
  Alcotest.(check int) "deg 1" 2 (Topology.degree t 1)

let test_builder_rejects_self_loop () =
  let b = Topology.builder 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_p2p: self loop") (fun () ->
      ignore (Topology.add_p2p b 1 1))

let test_builder_rejects_bad_node () =
  let b = Topology.builder 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Topology: node 5 out of range")
    (fun () -> ignore (Topology.add_p2p b 0 5));
  Alcotest.check_raises "zero cost" (Invalid_argument "Topology: link cost 0 below 1") (fun () ->
      ignore (Topology.add_lan ~cost:0 b [ 0; 1 ]))

let test_lan () =
  let b = Topology.builder 4 in
  let lan = Topology.add_lan b [ 0; 1; 2 ] in
  ignore (Topology.add_p2p b 2 3);
  let t = Topology.freeze b in
  Alcotest.(check bool) "is_lan" true (Topology.link t lan).Topology.is_lan;
  Alcotest.(check (list int)) "others of 0" [ 1; 2 ] (Topology.others_on_link t lan 0);
  Alcotest.(check (list int)) "others of 2" [ 0; 1 ] (Topology.others_on_link t lan 2);
  (* neighbors over a LAN enumerate each other member on one iface *)
  let n0 = Topology.neighbors t 0 in
  Alcotest.(check int) "lan neighbors" 2 (List.length n0);
  Alcotest.(check bool) "same iface" true
    (List.length (List.sort_uniq compare (List.map fst n0)) = 1)

let test_iface_mapping () =
  let b = Topology.builder 3 in
  let l01 = Topology.add_p2p b 0 1 in
  let l02 = Topology.add_p2p b 0 2 in
  let t = Topology.freeze b in
  Alcotest.(check int) "iface of first link" 0 (Topology.iface_of_link t 0 l01);
  Alcotest.(check int) "iface of second link" 1 (Topology.iface_of_link t 0 l02);
  let l = Topology.link_of_iface t 0 1 in
  Alcotest.(check int) "link back" l02 l.Topology.id;
  Alcotest.(check (option int)) "absent" None (Topology.iface_of_link_opt t 1 l02)

let test_link_of_iface_invalid () =
  let t = Classic.line 2 in
  Alcotest.check_raises "bad iface"
    (Invalid_argument "Topology.link_of_iface: node 0 has no iface 7") (fun () ->
      ignore (Topology.link_of_iface t 0 7))

let test_connected () =
  let t = Classic.line 5 in
  Alcotest.(check bool) "line connected" true (Topology.connected t);
  let b = Topology.builder 4 in
  ignore (Topology.add_p2p b 0 1);
  ignore (Topology.add_p2p b 2 3);
  Alcotest.(check bool) "two components" false (Topology.connected (Topology.freeze b))

(* Classic topologies *)

let test_classic_shapes () =
  Alcotest.(check int) "line links" 4 (Topology.n_links (Classic.line 5));
  Alcotest.(check int) "ring links" 5 (Topology.n_links (Classic.ring 5));
  Alcotest.(check int) "star links" 4 (Topology.n_links (Classic.star 5));
  Alcotest.(check int) "star hub degree" 4 (Topology.degree (Classic.star 5) 0);
  let g = Classic.grid 3 4 in
  Alcotest.(check int) "grid nodes" 12 (Topology.n_nodes g);
  (* rows*(cols-1) + (rows-1)*cols *)
  Alcotest.(check int) "grid links" 17 (Topology.n_links g);
  List.iter
    (fun t -> Alcotest.(check bool) "connected" true (Topology.connected t))
    [ Classic.line 7; Classic.ring 6; Classic.star 9; Classic.grid 4 4 ]

let test_three_domains () =
  let t, gateways, backbone = Classic.three_domains () in
  Alcotest.(check int) "nodes" 18 (Topology.n_nodes t);
  Alcotest.(check bool) "connected" true (Topology.connected t);
  Alcotest.(check (list int)) "gateways" [ 0; 5; 10 ] gateways;
  Alcotest.(check (list int)) "backbone" [ 15; 16; 17 ] backbone

(* Random graphs *)

let prop_random_graph_connected =
  QCheck.Test.make ~name:"random graphs are connected with target degree" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 3 8))
    (fun (seed, deg) ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:50 ~degree:(float_of_int deg) () in
      let avg = 2. *. float_of_int (Topology.n_links t) /. 50. in
      Topology.connected t
      && Float.abs (avg -. float_of_int deg) < 0.1
      && Array.for_all (fun l -> not l.Topology.is_lan) (Topology.links t))

let prop_random_graph_no_duplicate_edges =
  QCheck.Test.make ~name:"random graphs have no duplicate or self edges" ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:30 ~degree:4. () in
      let keys =
        Array.to_list (Topology.links t)
        |> List.map (fun l ->
               match l.Topology.ends with
               | [| u; v |] -> (min u v, max u v)
               | _ -> (-1, -1))
      in
      List.for_all (fun (u, v) -> u <> v && u >= 0) keys
      && List.length keys = List.length (List.sort_uniq compare keys))

let test_pick_members () =
  let prng = Prng.create 5 in
  let m = Random_graph.pick_members ~prng ~nodes:20 ~count:7 in
  Alcotest.(check int) "count" 7 (List.length m);
  Alcotest.(check int) "distinct" 7 (List.length (List.sort_uniq Int.compare m))

(* Dijkstra *)

let test_spt_line () =
  let t = Classic.line 5 in
  let tr = Spt.single_source t 0 in
  List.iteri
    (fun i d -> Alcotest.(check (option int)) (Printf.sprintf "d(%d)" i) (Some d) (Spt.distance tr i))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ]) (Spt.path tr 3)

let test_spt_weights () =
  (* 0-1 cost 10, 0-2 cost 1, 2-1 cost 1: shortest 0->1 is via 2. *)
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p ~cost:10 b 0 1);
  ignore (Topology.add_p2p ~cost:1 b 0 2);
  ignore (Topology.add_p2p ~cost:1 b 2 1);
  let t = Topology.freeze b in
  let tr = Spt.single_source t 0 in
  Alcotest.(check (option int)) "via 2" (Some 2) (Spt.distance tr 1);
  Alcotest.(check (option (list int))) "path via 2" (Some [ 0; 2; 1 ]) (Spt.path tr 1)

let test_spt_unreachable () =
  let b = Topology.builder 3 in
  ignore (Topology.add_p2p b 0 1);
  let t = Topology.freeze b in
  let tr = Spt.single_source t 0 in
  Alcotest.(check (option int)) "unreachable" None (Spt.distance tr 2);
  Alcotest.(check bool) "no path" true (Spt.path tr 2 = None)

let test_spt_usable_filter () =
  let b = Topology.builder 3 in
  let l01 = Topology.add_p2p b 0 1 in
  ignore (Topology.add_p2p b 1 2);
  ignore (Topology.add_p2p b 0 2);
  let t = Topology.freeze b in
  let usable _ _ lid = lid <> l01 in
  let tr = Spt.single_source ~usable t 0 in
  Alcotest.(check (option int)) "detour" (Some 2) (Spt.distance tr 1)

let test_first_hop () =
  let t = Classic.line 4 in
  let tr = Spt.single_source t 0 in
  let hop, hop_iface = Spt.first_hop t tr in
  Alcotest.(check int) "hop to 3 is 1" 1 hop.(3);
  Alcotest.(check int) "hop to 1 is 1" 1 hop.(1);
  Alcotest.(check int) "iface toward 3" 0 hop_iface.(3);
  Alcotest.(check int) "self" (-1) hop.(0)

let test_tree_edges_cover_members () =
  let t = Classic.grid 4 4 in
  let tr = Spt.single_source t 0 in
  let members = [ 3; 12; 15 ] in
  let edges = Spt.tree_edges tr ~members in
  let tree = Tree.of_edges ~n:16 edges in
  List.iter
    (fun m -> Alcotest.(check bool) (Printf.sprintf "member %d on tree" m) true (Tree.mem_node tree m))
    members;
  (* Tree path from root to each member has shortest length (unit costs). *)
  List.iter
    (fun m ->
      Alcotest.(check (option int)) "tree path = shortest" (Spt.distance tr m)
        (Tree.path_length tree 0 m))
    members

let test_scratch_matches_fresh () =
  let prng = Prng.create 99 in
  let scratch = Spt.make_scratch ~n:30 in
  (* The same scratch, reused across several distinct topologies and
     sources, must agree with the allocating entry point. *)
  for _ = 1 to 5 do
    let t = Random_graph.generate ~prng ~nodes:30 ~degree:4. () in
    for src = 0 to 9 do
      let fresh = Spt.single_source t src in
      let reused = Spt.single_source_into scratch t src in
      Alcotest.(check (array int)) "dist" fresh.Spt.dist reused.Spt.dist;
      Alcotest.(check bool) "parent" true (fresh.Spt.parent = reused.Spt.parent);
      Alcotest.(check bool) "via" true (fresh.Spt.via = reused.Spt.via)
    done
  done

let test_scratch_size_mismatch_rejected () =
  let t = Classic.line 4 in
  let scratch = Spt.make_scratch ~n:5 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Spt.single_source_into: scratch for 5 nodes, topology has 4") (fun () ->
      ignore (Spt.single_source_into scratch t 0))

let test_all_pairs_into_matches () =
  let prng = Prng.create 41 in
  let t = Random_graph.generate ~prng ~nodes:20 ~degree:3. () in
  let scratch = Spt.make_scratch ~n:20 in
  let out = Array.init 20 (fun _ -> Array.make 20 0) in
  Spt.all_pairs_into scratch t out;
  let expected = Spt.all_pairs t in
  Alcotest.(check bool) "same matrix" true (out = expected)

let test_all_pairs_symmetric () =
  let prng = Prng.create 77 in
  let t = Random_graph.generate ~prng ~nodes:20 ~degree:3. () in
  let m = Spt.all_pairs t in
  for u = 0 to 19 do
    for v = 0 to 19 do
      Alcotest.(check int) "symmetric" m.(u).(v) m.(v).(u)
    done
  done

let prop_dijkstra_edge_relaxed =
  QCheck.Test.make ~name:"dijkstra: every edge is relaxed" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:25 ~degree:4. () in
      let tr = Spt.single_source t 0 in
      Array.for_all
        (fun l ->
          match l.Topology.ends with
          | [| u; v |] ->
            tr.Spt.dist.(v) <= tr.Spt.dist.(u) + l.Topology.cost
            && tr.Spt.dist.(u) <= tr.Spt.dist.(v) + l.Topology.cost
          | _ -> true)
        (Topology.links t))

let prop_dijkstra_path_length_matches =
  QCheck.Test.make ~name:"dijkstra: path length equals distance (unit costs)" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 24))
    (fun (seed, dst) ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:25 ~degree:4. () in
      let tr = Spt.single_source t 0 in
      match (Spt.path tr dst, Spt.distance tr dst) with
      | Some p, Some d -> List.length p = d + 1
      | None, None -> true
      | _ -> false)

(* The bucket queue against the O(n^2) reference: the same distances and
   the same tree, parents and links alike, from every source, on graphs
   with LANs, parallel links and costs 1-5 (paths outrun the ring of 8
   buckets, so it wraps), with links, routers and single directions of
   links out of use.  One scratch serves every source. *)
let prop_spt_matches_reference =
  QCheck.Test.make ~name:"dijkstra: same trees as the reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Small_topo.random ~max_cost:5 prng in
      let n = Topology.n_nodes t in
      let link_up = Array.init (Topology.n_links t) (fun _ -> Prng.int prng 5 > 0) in
      let node_up = Array.init n (fun _ -> Prng.int prng 6 > 0) in
      let one_way = Prng.int prng 1000 in
      let usable u v lid =
        link_up.(lid) && node_up.(u) && node_up.(v) && ((u * 31) + (v * 7) + lid + one_way) mod 9 > 0
      in
      let scratch = Spt.make_scratch ~n in
      List.for_all
        (fun usable ->
          List.for_all
            (fun src ->
              let want = Spt_reference.single_source ?usable t src in
              let got = Spt.single_source_into ?usable scratch t src in
              want.Spt.dist = got.Spt.dist && want.Spt.parent = got.Spt.parent
              && want.Spt.via = got.Spt.via)
            (List.init n Fun.id))
        [ None; Some usable ])

let test_flat_adjacency () =
  let prng = Prng.create 5 in
  for _ = 1 to 20 do
    let t = Small_topo.random ~max_cost:5 prng in
    let adj = Topology.adjacency t in
    let max_cost = Array.fold_left (fun m l -> max m l.Topology.cost) 1 (Topology.links t) in
    Alcotest.(check int) "max cost" max_cost (Topology.max_cost t);
    for u = 0 to Topology.n_nodes t - 1 do
      let want =
        List.map (fun (iface, v) -> (v, snd (Topology.ifaces t u).(iface))) (Topology.neighbors t u)
      in
      let got =
        List.init
          (adj.Topology.edge_start.(u + 1) - adj.Topology.edge_start.(u))
          (fun i ->
            let k = adj.Topology.edge_start.(u) + i in
            Alcotest.(check int) "cost" (Topology.link t adj.Topology.edge_link.(k)).Topology.cost
              adj.Topology.edge_cost.(k);
            (adj.Topology.edge_nbr.(k), adj.Topology.edge_link.(k)))
      in
      Alcotest.(check (list (pair int int))) "edges in interface order" want got
    done
  done

(* Tree *)

let test_tree_rejects_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.of_edges: edges contain a cycle")
    (fun () -> ignore (Tree.of_edges ~n:3 [ (0, 1, "a"); (1, 2, "b"); (2, 0, "c") ]))

let test_tree_path () =
  let tree = Tree.of_edges ~n:5 [ (0, 1, 10); (1, 2, 11); (1, 3, 12) ] in
  (match Tree.path tree 2 3 with
  | Some (nodes, labels) ->
    Alcotest.(check (list int)) "nodes" [ 2; 1; 3 ] nodes;
    Alcotest.(check (list int)) "labels" [ 11; 12 ] labels
  | None -> Alcotest.fail "path expected");
  Alcotest.(check bool) "off tree" true (Tree.path tree 0 4 = None);
  Alcotest.(check (option int)) "self path" (Some 0) (Tree.path_length tree 1 1)

let test_tree_covered_labels () =
  (* star: 0 center with leaves 1..4 *)
  let tree = Tree.of_edges ~n:5 [ (0, 1, 1); (0, 2, 2); (0, 3, 3); (0, 4, 4) ] in
  let covered = Tree.covered_labels tree ~src:1 ~targets:[ 2; 3 ] in
  Alcotest.(check (list int)) "covers 1-0, 0-2, 0-3" [ 1; 2; 3 ] (List.sort compare covered);
  Alcotest.(check (list int)) "self target ignored" []
    (Tree.covered_labels tree ~src:1 ~targets:[ 1 ])

let prop_tree_covered_equals_union_of_paths =
  QCheck.Test.make ~name:"covered_labels = union of path labels" ~count:60
    QCheck.(triple (int_range 0 5000) (int_range 0 14) (list_of_size (Gen.return 4) (int_range 0 14)))
    (fun (seed, src, targets) ->
      (* random spanning tree over 15 nodes *)
      let prng = Prng.create seed in
      let edges = ref [] in
      for v = 1 to 14 do
        let u = Prng.int prng v in
        edges := (u, v, v) :: !edges
      done;
      let tree = Tree.of_edges ~n:15 !edges in
      let covered = List.sort_uniq compare (Tree.covered_labels tree ~src ~targets) in
      let naive =
        List.concat_map
          (fun tgt ->
            if tgt = src then []
            else match Tree.path tree src tgt with Some (_, labels) -> labels | None -> [])
          targets
        |> List.sort_uniq compare
      in
      covered = naive)

(* Transit-stub *)

let test_transit_stub_shape () =
  let prng = Prng.create 9 in
  let ts = Pim_graph.Transit_stub.generate ~transit:4 ~stubs_per_transit:2 ~stub_size:4 ~prng () in
  let open Pim_graph.Transit_stub in
  Alcotest.(check int) "node count" (4 + (4 * 2 * 4)) (Topology.n_nodes ts.topo);
  Alcotest.(check bool) "connected" true (Topology.connected ts.topo);
  Alcotest.(check int) "transit count" 4 (List.length ts.transit);
  Alcotest.(check int) "stub count" 8 (List.length ts.stubs);
  Alcotest.(check int) "one gateway per stub" 8 (List.length ts.gateways);
  (* Gateways lead their stubs. *)
  List.iter2
    (fun gw stub -> Alcotest.(check int) "gateway first" gw (List.hd stub))
    ts.gateways ts.stubs;
  (* Stub members stay out of the backbone. *)
  let member = random_stub_member ts ~prng in
  Alcotest.(check bool) "member not transit" false (List.mem member ts.transit)

let prop_transit_stub_connected =
  QCheck.Test.make ~name:"transit-stub topologies are connected" ~count:40
    QCheck.(triple (int_range 0 5000) (int_range 1 6) (int_range 1 5))
    (fun (seed, transit, stub_size) ->
      let prng = Prng.create seed in
      let ts =
        Pim_graph.Transit_stub.generate ~transit ~stubs_per_transit:2 ~stub_size ~prng ()
      in
      Topology.connected ts.Pim_graph.Transit_stub.topo)

(* A backbone chord can redraw an existing pair, and a stub chord can
   land on a spanning-tree edge — both must be dropped, not doubled. *)
let prop_transit_stub_simple_graph =
  QCheck.Test.make ~name:"transit-stub topologies are simple graphs" ~count:60
    QCheck.(quad (int_range 0 10000) (int_range 1 8) (int_range 1 4) (int_range 1 8))
    (fun (seed, transit, stubs_per_transit, stub_size) ->
      let prng = Prng.create seed in
      let ts = Pim_graph.Transit_stub.generate ~transit ~stubs_per_transit ~stub_size ~prng () in
      let keys =
        Array.to_list (Topology.links ts.Pim_graph.Transit_stub.topo)
        |> List.map (fun l ->
               match l.Topology.ends with
               | [| u; v |] -> (min u v, max u v)
               | _ -> (-1, -1))
      in
      List.for_all (fun (u, v) -> u <> v && u >= 0) keys
      && List.length keys = List.length (List.sort_uniq compare keys))

(* Center *)

let test_center_on_line () =
  let t = Classic.line 5 in
  let apsp = Spt.all_pairs t in
  let members = [ 0; 4 ] in
  (* Every node on the 0..4 path yields max delay 4 for this member pair;
     ties break toward the smallest node id. *)
  let core, d = Center.optimal apsp ~senders:members ~receivers:members in
  Alcotest.(check int) "tie breaks to node 0" 0 core;
  Alcotest.(check int) "delay via core" 4 d;
  Alcotest.(check int) "spt delay" 4 (Center.spt_max_delay apsp ~senders:members ~receivers:members);
  (* An off-path-balanced member set pins the core to the middle. *)
  let t3 = Classic.star 5 in
  let apsp3 = Spt.all_pairs t3 in
  let spokes = [ 1; 2; 3; 4 ] in
  let core3, d3 = Center.optimal apsp3 ~senders:spokes ~receivers:spokes in
  Alcotest.(check int) "hub optimal" 0 core3;
  Alcotest.(check int) "hub delay" 2 d3

let prop_center_never_beats_spt =
  QCheck.Test.make ~name:"optimal center-based delay >= SPT delay" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:30 ~degree:4. () in
      let members = Random_graph.pick_members ~prng ~nodes:30 ~count:6 in
      let apsp = Spt.all_pairs t in
      let spt = Center.spt_max_delay apsp ~senders:members ~receivers:members in
      let _, cbt = Center.optimal apsp ~senders:members ~receivers:members in
      cbt >= spt)

let prop_center_optimal_is_minimum =
  QCheck.Test.make ~name:"Center.optimal minimises over all candidates" ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      let prng = Prng.create seed in
      let t = Random_graph.generate ~prng ~nodes:20 ~degree:3. () in
      let members = Random_graph.pick_members ~prng ~nodes:20 ~count:5 in
      let apsp = Spt.all_pairs t in
      let _, best = Center.optimal apsp ~senders:members ~receivers:members in
      List.for_all
        (fun c -> Center.cbt_max_delay apsp ~center:c ~senders:members ~receivers:members >= best)
        (List.init 20 Fun.id))

let test_center_tree_spans () =
  let t = Classic.grid 3 3 in
  let tree = Center.tree t ~center:4 ~members:[ 0; 8; 6 ] in
  List.iter
    (fun m -> Alcotest.(check bool) "member on tree" true (Tree.mem_node tree m))
    [ 0; 8; 6; 4 ]

let () =
  Alcotest.run "pim_graph"
    [
      ( "topology",
        [
          Alcotest.test_case "builder p2p" `Quick test_builder_p2p;
          Alcotest.test_case "reject self loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "reject bad node" `Quick test_builder_rejects_bad_node;
          Alcotest.test_case "lan" `Quick test_lan;
          Alcotest.test_case "iface mapping" `Quick test_iface_mapping;
          Alcotest.test_case "invalid iface" `Quick test_link_of_iface_invalid;
          Alcotest.test_case "connected" `Quick test_connected;
          Alcotest.test_case "flat adjacency" `Quick test_flat_adjacency;
        ] );
      ( "classic",
        [
          Alcotest.test_case "shapes" `Quick test_classic_shapes;
          Alcotest.test_case "three domains" `Quick test_three_domains;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_random_graph_connected;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_random_graph_no_duplicate_edges;
          Alcotest.test_case "pick members" `Quick test_pick_members;
        ] );
      ( "spt",
        [
          Alcotest.test_case "line distances" `Quick test_spt_line;
          Alcotest.test_case "weighted" `Quick test_spt_weights;
          Alcotest.test_case "unreachable" `Quick test_spt_unreachable;
          Alcotest.test_case "usable filter" `Quick test_spt_usable_filter;
          Alcotest.test_case "first hop" `Quick test_first_hop;
          Alcotest.test_case "tree edges cover members" `Quick test_tree_edges_cover_members;
          Alcotest.test_case "scratch matches fresh" `Quick test_scratch_matches_fresh;
          Alcotest.test_case "scratch size mismatch" `Quick test_scratch_size_mismatch_rejected;
          Alcotest.test_case "all pairs into matches" `Quick test_all_pairs_into_matches;
          Alcotest.test_case "all pairs symmetric" `Quick test_all_pairs_symmetric;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_dijkstra_edge_relaxed;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_dijkstra_path_length_matches;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_spt_matches_reference;
        ] );
      ( "tree",
        [
          Alcotest.test_case "rejects cycle" `Quick test_tree_rejects_cycle;
          Alcotest.test_case "path" `Quick test_tree_path;
          Alcotest.test_case "covered labels" `Quick test_tree_covered_labels;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_tree_covered_equals_union_of_paths;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "shape" `Quick test_transit_stub_shape;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_transit_stub_connected;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_transit_stub_simple_graph;
        ] );
      ( "center",
        [
          Alcotest.test_case "line center" `Quick test_center_on_line;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_center_never_beats_spt;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_center_optimal_is_minimum;
          Alcotest.test_case "center tree spans" `Quick test_center_tree_spans;
        ] );
    ]
