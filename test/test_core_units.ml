(* Unit tests for the small Pim_core modules: Config, Rp_set, Message,
   Deployment aggregation, Olist. *)

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

module Config = Pim_core.Config
module Rp_set = Pim_core.Rp_set
module Message = Pim_core.Message
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Packet = Pim_net.Packet

let feq = Alcotest.float 1e-9

(* Config *)

let test_config_scale () =
  let c = Config.scale 0.5 Config.default in
  Alcotest.check feq "jp period" (Config.default.Config.jp_period /. 2.) c.Config.jp_period;
  Alcotest.check feq "holdtime" (Config.default.Config.oif_holdtime /. 2.) c.Config.oif_holdtime;
  Alcotest.check feq "rp timeout" (Config.default.Config.rp_timeout /. 2.) c.Config.rp_timeout;
  (* Policies are untouched by scaling. *)
  Alcotest.(check bool) "policy preserved" true (c.Config.spt_policy = Config.Immediate)

let test_config_fast_ratios () =
  let d = Config.default and f = Config.fast in
  Alcotest.check feq "holdtime = 3x period (default)" (3. *. d.Config.jp_period)
    d.Config.oif_holdtime;
  Alcotest.check feq "holdtime = 3x period (fast)" (3. *. f.Config.jp_period)
    f.Config.oif_holdtime;
  Alcotest.(check bool) "rp timeout covers 3 beacons" true
    (d.Config.rp_timeout > 3. *. d.Config.rp_reach_period)

let test_config_with_jp_period () =
  let c = Config.with_jp_period 10. Config.default in
  Alcotest.check feq "period" 10. c.Config.jp_period;
  Alcotest.check feq "derived holdtime" 30. c.Config.oif_holdtime;
  Alcotest.check feq "derived linger" 30. c.Config.entry_linger

let test_config_with_policy () =
  let c = Config.with_spt_policy Config.Never Config.default in
  Alcotest.(check bool) "policy set" true (c.Config.spt_policy = Config.Never);
  Alcotest.check feq "timers untouched" Config.default.Config.jp_period c.Config.jp_period

(* Rp_set *)

let g1 = Group.of_index 1

let g2 = Group.of_index 2

let test_rp_set () =
  let s = Rp_set.of_list [ (g1, [ Addr.router 1; Addr.router 2 ]) ] in
  Alcotest.(check int) "two rps" 2 (List.length (Rp_set.rps s g1));
  Alcotest.(check bool) "ordered" true
    (List.hd (Rp_set.rps s g1) = Addr.router 1);
  Alcotest.(check bool) "sparse" true (Rp_set.is_sparse s g1);
  Alcotest.(check bool) "unmapped group not sparse" false (Rp_set.is_sparse s g2);
  Alcotest.(check (list int)) "unmapped rps empty" []
    (List.map (fun _ -> 0) (Rp_set.rps s g2));
  Alcotest.(check int) "groups listed" 1 (List.length (Rp_set.groups s));
  let s2 = Rp_set.add s g2 [ Addr.router 5 ] in
  Alcotest.(check int) "after add" 2 (List.length (Rp_set.groups s2));
  Alcotest.(check int) "original untouched" 1 (List.length (Rp_set.groups s));
  Alcotest.(check bool) "empty set" false (Rp_set.is_sparse Rp_set.empty g1);
  let single = Rp_set.single g1 (Addr.router 9) in
  Alcotest.(check int) "single" 1 (List.length (Rp_set.rps single g1));
  (* groups come back in ascending group order regardless of insertion
     order — seeded runs iterate over it, so the order is load-bearing. *)
  let g3 = Group.of_index 3 in
  let shuffled = Rp_set.of_list [ (g3, [ Addr.router 3 ]); (g1, [ Addr.router 1 ]) ] in
  let shuffled = Rp_set.add shuffled g2 [ Addr.router 2 ] in
  let order = Rp_set.groups shuffled in
  Alcotest.(check bool) "groups ascending" true
    (List.for_all2 Group.equal order (List.sort Group.compare order))

(* Message *)

let test_jp_entry_flags () =
  let e = Message.jp_entry ~wc:true ~rp:true (Addr.router 3) in
  Alcotest.(check bool) "wc" true e.Message.wc;
  Alcotest.(check bool) "rp" true e.Message.rp;
  let plain = Message.jp_entry (Addr.router 3) in
  Alcotest.(check bool) "defaults off" false (plain.Message.wc || plain.Message.rp)

let test_message_sizes () =
  let je = Message.jp_entry (Addr.router 3) in
  let single =
    Message.join_prune_packet ~src:(Addr.router 0) ~target:(Addr.router 1) ~origin:0 ~group:g1
      ~joins:[ je ] ~prunes:[] ~holdtime:60.
  in
  let bigger =
    Message.join_prune_packet ~src:(Addr.router 0) ~target:(Addr.router 1) ~origin:0 ~group:g1
      ~joins:[ je; je; je ] ~prunes:[ je ] ~holdtime:60.
  in
  Alcotest.(check bool) "size grows with entries" true
    (bigger.Packet.size > single.Packet.size);
  (* Bundling several groups costs less than separate messages. *)
  let section target group =
    {
      Message.target;
      origin = 0;
      group;
      joins = [ je ];
      prunes = [];
      holdtime = 60.;
    }
  in
  let bundle =
    Message.bundle_packet ~src:(Addr.router 0)
      [ section (Addr.router 1) g1; section (Addr.router 1) g2 ]
  in
  Alcotest.(check bool) "bundle smaller than two singles" true
    (bundle.Packet.size < 2 * single.Packet.size)

let test_message_printers () =
  let je = Message.jp_entry ~wc:true ~rp:true (Addr.router 3) in
  let pkt =
    Message.join_prune_packet ~src:(Addr.router 0) ~target:(Addr.router 1) ~origin:0 ~group:g1
      ~joins:[ je ] ~prunes:[] ~holdtime:60.
  in
  let s = Packet.payload_to_string pkt.Packet.payload in
  Alcotest.(check bool) "join printed" true
    (String.length s > 0 && String.sub s 0 6 = "pim-jp");
  let reach = Message.rp_reachability_packet ~src:(Addr.router 0) ~group:g1 ~rp:(Addr.router 0) in
  Alcotest.(check bool) "reach printed" true
    (Packet.payload_to_string reach.Packet.payload <> "<payload>")

(* Deployment aggregation *)

let test_deployment_total_stats () =
  let eng = Pim_sim.Engine.create () in
  let net = Pim_sim.Net.create eng (Pim_graph.Classic.line 4) in
  let rp_set = Rp_set.single g1 (Addr.router 1) in
  let dep = Pim_core.Deployment.create_static ~config:Config.fast net ~rp_set in
  Pim_core.Router.join_local (Pim_core.Deployment.router dep 3) g1;
  Pim_sim.Engine.run ~until:20. eng;
  let counters = Pim_sim.Net.counters net in
  let by_hand =
    Array.fold_left
      (fun acc r ->
        acc + Pim_sim.Counters.get counters ~node:(Pim_core.Router.node r) Jp_msgs_sent)
      0
      (Pim_core.Deployment.routers dep)
  in
  Alcotest.(check int) "aggregation matches" by_hand
    (Pim_sim.Counters.total counters Jp_msgs_sent);
  Alcotest.(check bool) "joins flowed" true (Pim_sim.Counters.total counters Joins_sent > 0)

(* Olist: the in-place oif walks against the lists they replaced *)

module Olist = Pim_core.Olist
module Fwd = Pim_mcast.Fwd

(* Random forwarding state around [now] = 10: oif timers and prune masks
   on both sides of it (and exactly at it — an oif or mask whose time
   equals [now] has run out), local oifs, the pseudo interface -1, iifs
   and [exclude] that hit and miss the oifs. *)
let olist_case =
  let open QCheck.Gen in
  let iface = int_range (-1) 6 in
  let time = oneofl [ 5.; 9.99; 10.; 10.01; 15. ] in
  let oifs = list_size (int_bound 6) (triple iface time bool) in
  let iif = opt (int_range 0 6) in
  let entry = quad bool (triple bool bool iif) oifs (list_size (int_bound 4) (pair iface time)) in
  pair (pair entry (opt (pair iif oifs))) (opt iface)

let build_olist_case (((sg, (rp_bit, spt_bit, iif), oifs, masks), star), exclude) =
  let g = Group.of_index 3 and rp = Addr.router 0 in
  let add e = List.iter (fun (i, expires, local) -> Fwd.add_oif e i ~expires ~local) in
  let e =
    if sg then Fwd.make_sg ~group:g ~source:(Addr.router 5) ~rp ~rp_bit ~iif ~expires:20. ()
    else Fwd.make_star ~group:g ~rp ~iif ~expires:20.
  in
  e.Fwd.spt_bit <- sg && spt_bit;
  add e oifs;
  let star =
    Option.map
      (fun (siif, soifs) ->
        let s = Fwd.make_star ~group:g ~rp ~iif:siif ~expires:20. in
        add s soifs;
        s)
      star
  in
  (* The reference reads the mask as the table it used to be. *)
  let pruned = Hashtbl.create 4 and mask = Pim_mcast.Iface_timers.create () in
  List.iter
    (fun (i, exp) ->
      Hashtbl.replace pruned i exp;
      Pim_mcast.Iface_timers.set mask i exp)
    masks;
  (e, star, pruned, mask, exclude)

let prop_olist_matches_lists =
  QCheck.Test.make ~count:2000 ~name:"in-place oif walks yield the old lists, in order"
    (QCheck.make olist_case)
    (fun case ->
      let e, star, pruned, mask, exclude = build_olist_case case in
      let now = 10. in
      let ex = Option.value exclude ~default:Pim_graph.Topology.no_iface in
      let reference = Oif_reference.effective_olist ~now ~pruned ~star e ~exclude in
      let walked = Olist.effective_list ~now ~pruned:mask ~star ~exclude:ex e in
      let count = Olist.effective Fwd.skip () () () ~now ~pruned:mask ~star ~exclude:ex e in
      let shared_ok =
        match star with
        | None -> true
        | Some s ->
          Olist.shared_list ~now ~pruned:mask ~star:s ~exclude:ex
          = Oif_reference.shared_olist ~now ~pruned ~star ~exclude
      in
      walked = reference && count = List.length reference && shared_ok)

let () =
  Alcotest.run "pim_core_units"
    [
      ( "config",
        [
          Alcotest.test_case "scale" `Quick test_config_scale;
          Alcotest.test_case "fast ratios" `Quick test_config_fast_ratios;
          Alcotest.test_case "with_jp_period" `Quick test_config_with_jp_period;
          Alcotest.test_case "with_spt_policy" `Quick test_config_with_policy;
        ] );
      ("rp-set", [ Alcotest.test_case "operations" `Quick test_rp_set ]);
      ( "message",
        [
          Alcotest.test_case "jp entry flags" `Quick test_jp_entry_flags;
          Alcotest.test_case "sizes" `Quick test_message_sizes;
          Alcotest.test_case "printers" `Quick test_message_printers;
        ] );
      ("deployment", [ Alcotest.test_case "total stats" `Quick test_deployment_total_stats ]);
      ("olist", [ QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_olist_matches_lists ]);
    ]
