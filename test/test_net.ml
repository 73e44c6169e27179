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

(* Tests for Pim_net: addresses, groups, prefixes, packets. *)

module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Prefix = Pim_net.Prefix
module Packet = Pim_net.Packet

let addr = Alcotest.testable Addr.pp Addr.equal

let test_addr_octets () =
  let a = Addr.of_octets 10 0 1 2 in
  Alcotest.(check string) "to_string" "10.0.1.2" (Addr.to_string a)

let test_addr_parse () =
  Alcotest.(check (option addr)) "parse" (Some (Addr.of_octets 192 168 1 1))
    (Addr.of_string "192.168.1.1");
  Alcotest.(check (option addr)) "reject octet 256" None (Addr.of_string "1.2.3.256");
  Alcotest.(check (option addr)) "reject short" None (Addr.of_string "1.2.3");
  Alcotest.(check (option addr)) "reject junk" None (Addr.of_string "a.b.c.d");
  Alcotest.(check (option addr)) "reject negative" None (Addr.of_string "1.2.3.-4")

let test_addr_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Addr.to_string (Addr.of_string_exn s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "224.0.0.2" ]

let test_addr_exn () =
  Alcotest.check_raises "of_string_exn" (Invalid_argument "Addr.of_string_exn: \"nope\"")
    (fun () -> ignore (Addr.of_string_exn "nope"))

let test_router_encoding () =
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "router roundtrip" (Some i) (Addr.router_index (Addr.router i)))
    [ 0; 1; 255; 256; 65535 ]

let test_host_encoding () =
  List.iter
    (fun (r, k) ->
      let h = Addr.host ~router:r k in
      Alcotest.(check (option int)) "host -> router" (Some r) (Addr.host_router_index h);
      Alcotest.(check (option int)) "host is not router" None (Addr.router_index h))
    [ (0, 1); (3, 255); (511, 9); (32767, 1) ]

let test_router_host_disjoint () =
  Alcotest.(check (option int)) "router addr is not host" None
    (Addr.host_router_index (Addr.router 12))

let test_multicast_detect () =
  Alcotest.(check bool) "224/4 low" true (Addr.is_multicast (Addr.of_octets 224 0 0 1));
  Alcotest.(check bool) "224/4 high" true (Addr.is_multicast (Addr.of_octets 239 255 255 255));
  Alcotest.(check bool) "unicast" false (Addr.is_multicast (Addr.of_octets 10 1 2 3));
  Alcotest.(check bool) "240/4" false (Addr.is_multicast (Addr.of_octets 240 0 0 1))

let prop_addr_string_roundtrip =
  QCheck.Test.make ~name:"addr dotted-quad roundtrip" ~count:500
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let x = Addr.of_octets a b c d in
      match Addr.of_string (Addr.to_string x) with
      | Some y -> Addr.equal x y
      | None -> false)

let prop_addr_order_total =
  QCheck.Test.make ~name:"addr compare consistent with equal" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (i, j) ->
      let a = Addr.router i and b = Addr.router j in
      (Addr.compare a b = 0) = Addr.equal a b)

(* Groups *)

let test_group_of_addr () =
  Alcotest.(check bool) "class D accepted" true
    (Group.of_addr (Addr.of_octets 225 1 2 3) <> None);
  Alcotest.(check bool) "unicast rejected" true (Group.of_addr (Addr.of_octets 10 1 2 3) = None)

let test_group_index_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option int)) "roundtrip" (Some k) (Group.index (Group.of_index k)))
    [ 0; 1; 255; 65536; (1 lsl 24) - 1 ]

let test_group_index_distinct () =
  let a = Group.of_index 1 and b = Group.of_index 2 in
  Alcotest.(check bool) "distinct groups" false (Group.equal a b)

let prop_group_index =
  QCheck.Test.make ~name:"group index roundtrip" ~count:300
    QCheck.(int_bound ((1 lsl 24) - 1))
    (fun k -> Group.index (Group.of_index k) = Some k)

(* Prefixes *)

let test_prefix_contains () =
  let p = Prefix.make (Addr.of_octets 10 1 0 0) 16 in
  Alcotest.(check bool) "inside" true (Prefix.contains p (Addr.of_octets 10 1 200 3));
  Alcotest.(check bool) "outside" false (Prefix.contains p (Addr.of_octets 10 2 0 1))

let test_prefix_host_bits_zeroed () =
  let p = Prefix.make (Addr.of_octets 10 1 2 3) 16 in
  Alcotest.check addr "network" (Addr.of_octets 10 1 0 0) (Prefix.network p)

let test_prefix_default () =
  Alcotest.(check bool) "default contains all" true
    (Prefix.contains Prefix.default (Addr.of_octets 250 1 2 3))

let test_prefix_host () =
  let a = Addr.of_octets 10 1 2 3 in
  let p = Prefix.host a in
  Alcotest.(check bool) "contains itself" true (Prefix.contains p a);
  Alcotest.(check bool) "excludes neighbor" false (Prefix.contains p (Addr.of_octets 10 1 2 4))

let test_prefix_subsumes () =
  let p16 = Prefix.make (Addr.of_octets 10 1 0 0) 16 in
  let p24 = Prefix.make (Addr.of_octets 10 1 2 0) 24 in
  Alcotest.(check bool) "wider subsumes narrower" true (Prefix.subsumes p16 p24);
  Alcotest.(check bool) "narrower does not subsume" false (Prefix.subsumes p24 p16);
  Alcotest.(check bool) "self subsumes" true (Prefix.subsumes p16 p16)

let test_prefix_parse () =
  (match Prefix.of_string "10.1.0.0/16" with
  | Some p ->
    Alcotest.(check int) "len" 16 (Prefix.length p);
    Alcotest.(check string) "print" "10.1.0.0/16" (Prefix.to_string p)
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "bad len" true (Prefix.of_string "10.1.0.0/33" = None);
  (match Prefix.of_string "10.1.2.3" with
  | Some p -> Alcotest.(check int) "bare addr is /32" 32 (Prefix.length p)
  | None -> Alcotest.fail "bare addr parse failed")

let prop_prefix_contains_network =
  QCheck.Test.make ~name:"prefix contains its own network" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 32))
    (fun (i, len) ->
      let p = Prefix.make (Addr.router i) len in
      Prefix.contains p (Prefix.network p))

(* Packets *)

(* A packet's [ttl] is its TTL at origination; [Net] counts the routers
   that forwarded a frame.  On the line 0-1-2-3-4, router 0 sends a TTL-3
   packet, routers 1 and 3 forward it, router 2 re-sends it with
   [Net.send], which keeps its TTL, through a [`Delay] tamper, which keeps
   it too, and router 4 may not forward it. *)
let test_packet_ttl () =
  let module Net = Pim_sim.Net in
  let module Engine = Pim_sim.Engine in
  let g = Group.of_index 1 in
  let p = Packet.multicast ~src:(Addr.router 0) ~group:g ~ttl:3 ~size:100 (Packet.Raw "x") in
  let eng = Engine.create () in
  let net = Net.create eng (Pim_graph.Classic.line 5) in
  let seen = Array.make 5 0 and kept = ref p and exhausted = ref false in
  let forward u ~iface:_ pkt =
    seen.(u) <- Net.ttl net pkt;
    Net.forward net u ~iface:1 pkt
  in
  Net.set_handler net 1 (forward 1);
  Net.set_handler net 2 (fun ~iface:_ pkt ->
      seen.(2) <- Net.ttl net pkt;
      kept := Net.with_ttl net pkt;
      Net.tamper_next net 2 (`Delay 0.5);
      Net.send net 2 ~iface:1 pkt);
  Net.set_handler net 3 (forward 3);
  Net.set_handler net 4 (fun ~iface pkt ->
      seen.(4) <- Net.ttl net pkt;
      match Net.forward net 4 ~iface pkt with
      | () -> ()
      | exception Invalid_argument _ -> exhausted := true);
  Net.send net 0 ~iface:0 p;
  Engine.run eng;
  Alcotest.(check (array int)) "remaining TTL at each router" [| 0; 3; 2; 2; 1 |] seen;
  Alcotest.(check bool) "TTL 1 may not be forwarded" true !exhausted;
  Alcotest.(check int) "the field keeps the TTL at origination" 3 p.Packet.ttl;
  Alcotest.(check int) "a kept copy carries the remaining TTL" 2 !kept.Packet.ttl;
  Alcotest.(check int) "outside a delivery the field is the TTL" 3 (Net.ttl net p)

let test_packet_printer () =
  let p = Packet.unicast ~src:(Addr.router 0) ~dst:(Addr.router 1) ~size:10 (Packet.Raw "abc") in
  Alcotest.(check string) "raw payload printer" "raw(3 bytes)"
    (Packet.payload_to_string p.Packet.payload)

type Packet.payload += Test_payload

let test_packet_custom_printer () =
  Packet.register_printer (function Test_payload -> Some "test!" | _ -> None);
  Alcotest.(check string) "registered printer" "test!" (Packet.payload_to_string Test_payload)

let () =
  Alcotest.run "pim_net"
    [
      ( "addr",
        [
          Alcotest.test_case "octets" `Quick test_addr_octets;
          Alcotest.test_case "parse" `Quick test_addr_parse;
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "of_string_exn" `Quick test_addr_exn;
          Alcotest.test_case "router encoding" `Quick test_router_encoding;
          Alcotest.test_case "host encoding" `Quick test_host_encoding;
          Alcotest.test_case "router/host disjoint" `Quick test_router_host_disjoint;
          Alcotest.test_case "multicast detect" `Quick test_multicast_detect;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_addr_string_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_addr_order_total;
        ] );
      ( "group",
        [
          Alcotest.test_case "of_addr" `Quick test_group_of_addr;
          Alcotest.test_case "index roundtrip" `Quick test_group_index_roundtrip;
          Alcotest.test_case "index distinct" `Quick test_group_index_distinct;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_group_index;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "host bits zeroed" `Quick test_prefix_host_bits_zeroed;
          Alcotest.test_case "default" `Quick test_prefix_default;
          Alcotest.test_case "host prefix" `Quick test_prefix_host;
          Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_prefix_contains_network;
        ] );
      ( "packet",
        [
          Alcotest.test_case "ttl" `Quick test_packet_ttl;
          Alcotest.test_case "printer" `Quick test_packet_printer;
          Alcotest.test_case "custom printer" `Quick test_packet_custom_printer;
        ] );
    ]
