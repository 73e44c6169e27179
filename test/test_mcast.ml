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

(* Tests for Pim_mcast: data packets, forwarding entries, FIB. *)

module Fwd = Pim_mcast.Fwd
module Mdata = Pim_mcast.Mdata
module Addr = Pim_net.Addr
module Group = Pim_net.Group
module Packet = Pim_net.Packet

let g = Group.of_index 1

let g2 = Group.of_index 2

let s = Addr.host ~router:3 1

let s2 = Addr.host ~router:4 1

let rp = Addr.router 9

(* Mdata *)

let test_mdata () =
  let pkt = Mdata.make ~src:s ~group:g ~seq:5 ~sent_at:1.5 () in
  Alcotest.(check bool) "is_data" true (Mdata.is_data pkt);
  Alcotest.(check int) "default size" 1000 pkt.Packet.size;
  (match pkt.Packet.payload with
  | Mdata.Data i ->
    Alcotest.(check int) "seq" 5 i.Mdata.seq;
    Alcotest.(check (float 1e-9)) "sent_at" 1.5 i.Mdata.sent_at
  | _ -> Alcotest.fail "info expected");
  (match pkt.Packet.dst with
  | Packet.Multicast gg -> Alcotest.(check bool) "group" true (Group.equal g gg)
  | Packet.Unicast _ -> Alcotest.fail "group expected");
  let other = Packet.unicast ~src:s ~dst:rp ~size:1 (Packet.Raw "x") in
  Alcotest.(check bool) "non-data" false (Mdata.is_data other)

(* Entries *)

let test_star_entry_shape () =
  let e = Fwd.make_star ~group:g ~rp ~iif:(Some 2) ~expires:10. in
  Alcotest.(check bool) "is_star" true (Fwd.is_star e);
  Alcotest.(check bool) "wc" true e.Fwd.wc_bit;
  Alcotest.(check bool) "rp bit" true e.Fwd.rp_bit;
  Alcotest.(check bool) "spt clear" false e.Fwd.spt_bit;
  Alcotest.(check bool) "rp stored" true (e.Fwd.rp = Some rp)

let test_sg_entry_shape () =
  let e = Fwd.make_sg ~group:g ~source:s ~iif:(Some 1) ~expires:10. () in
  Alcotest.(check bool) "not star" false (Fwd.is_star e);
  Alcotest.(check bool) "no wc" false e.Fwd.wc_bit;
  Alcotest.(check bool) "no rp bit" false e.Fwd.rp_bit;
  let neg = Fwd.make_sg ~group:g ~source:s ~rp_bit:true ~iif:(Some 1) ~expires:10. () in
  Alcotest.(check bool) "negative cache rp bit" true neg.Fwd.rp_bit

let test_oif_lifecycle () =
  let e = Fwd.make_sg ~group:g ~source:s ~iif:(Some 0) ~expires:100. () in
  Fwd.add_oif e 1 ~expires:10. ~local:false;
  Fwd.add_oif e 2 ~expires:20. ~local:false;
  Alcotest.(check (list int)) "live at 5" [ 1; 2 ] (Fwd.live_oifs e ~now:5.);
  Alcotest.(check (list int)) "one expired at 15" [ 2 ] (Fwd.live_oifs e ~now:15.);
  (* Refresh extends, never shortens. *)
  Fwd.add_oif e 1 ~expires:30. ~local:false;
  Fwd.add_oif e 1 ~expires:12. ~local:false;
  Alcotest.(check (list int)) "refreshed" [ 1; 2 ] (Fwd.live_oifs e ~now:15.);
  Alcotest.(check (list int)) "max kept" [ 1 ] (Fwd.live_oifs e ~now:25.);
  Fwd.remove_oif e 1;
  Alcotest.(check (list int)) "removed" [] (Fwd.live_oifs e ~now:5. |> List.filter (( = ) 1))

let test_oif_local_flag () =
  let e = Fwd.make_star ~group:g ~rp ~iif:(Some 0) ~expires:100. in
  Fwd.add_oif e 3 ~expires:0. ~local:true;
  (* Local membership keeps the oif alive past its timer. *)
  Alcotest.(check (list int)) "local oif immortal" [ 3 ] (Fwd.live_oifs e ~now:50.);
  Alcotest.(check bool) "no expiry pruning of local" false (Fwd.prune_expired_oifs e ~now:50.);
  (match Fwd.find_oif_exn e 3 with
  | o -> o.Fwd.local <- false
  | exception Not_found -> Alcotest.fail "oif expected");
  Alcotest.(check (list int)) "dies once non-local" [] (Fwd.live_oifs e ~now:50.);
  Alcotest.(check bool) "now prunable" true (Fwd.prune_expired_oifs e ~now:50.)

let test_live_oifs_exclude_iif () =
  let e = Fwd.make_sg ~group:g ~source:s ~iif:(Some 1) ~expires:100. () in
  Fwd.add_oif e 1 ~expires:50. ~local:false;
  Fwd.add_oif e 2 ~expires:50. ~local:false;
  Alcotest.(check (list int)) "iif excluded" [ 2 ] (Fwd.live_oifs e ~now:0.)

let test_oif_or_local_flag_merge () =
  let e = Fwd.make_star ~group:g ~rp ~iif:None ~expires:100. in
  Fwd.add_oif e 1 ~expires:10. ~local:false;
  Fwd.add_oif e 1 ~expires:0. ~local:true;
  match Fwd.find_oif_exn e 1 with
  | o -> Alcotest.(check bool) "local flag or'ed in" true o.Fwd.local
  | exception Not_found -> Alcotest.fail "oif expected"

(* FIB *)

let test_fib_match_rules () =
  let fib = Fwd.create () in
  let star = Fwd.make_star ~group:g ~rp ~iif:(Some 0) ~expires:100. in
  Fwd.insert fib star;
  Alcotest.(check bool) "star match" true (Fwd.is_star (Fwd.match_data fib g ~src:s));
  let sg = Fwd.make_sg ~group:g ~source:s ~iif:(Some 1) ~expires:100. () in
  Fwd.insert fib sg;
  Alcotest.(check bool) "sg preferred" false (Fwd.is_star (Fwd.match_data fib g ~src:s));
  Alcotest.(check bool) "other source falls to star" true
    (Fwd.is_star (Fwd.match_data fib g ~src:s2));
  Alcotest.check_raises "other group no match" Not_found (fun () ->
      ignore (Fwd.match_data fib g2 ~src:s));
  Fwd.remove fib g None;
  Alcotest.check_raises "other source, no star" Not_found (fun () ->
      ignore (Fwd.match_data fib g ~src:s2))

let test_fib_insert_remove () =
  let fib = Fwd.create () in
  Fwd.insert fib (Fwd.make_star ~group:g ~rp ~iif:None ~expires:1.);
  Alcotest.(check int) "count" 1 (Fwd.count fib);
  Alcotest.check_raises "duplicate" (Invalid_argument "Fwd.insert: duplicate entry") (fun () ->
      Fwd.insert fib (Fwd.make_star ~group:g ~rp ~iif:None ~expires:1.));
  Fwd.remove fib g None;
  Alcotest.(check int) "removed" 0 (Fwd.count fib)

let test_fib_group_entries_order () =
  let fib = Fwd.create () in
  Fwd.insert fib (Fwd.make_sg ~group:g ~source:s2 ~iif:None ~expires:1. ());
  Fwd.insert fib (Fwd.make_star ~group:g ~rp ~iif:None ~expires:1.);
  Fwd.insert fib (Fwd.make_sg ~group:g ~source:s ~iif:None ~expires:1. ());
  Fwd.insert fib (Fwd.make_star ~group:g2 ~rp ~iif:None ~expires:1.);
  let entries = Fwd.group_entries fib g in
  Alcotest.(check int) "three for g" 3 (List.length entries);
  (match entries with
  | first :: _ -> Alcotest.(check bool) "star first" true (Fwd.is_star first)
  | [] -> Alcotest.fail "entries expected");
  Alcotest.(check int) "one for g2" 1 (List.length (Fwd.group_entries fib g2))

let prop_fib_find_after_insert =
  QCheck.Test.make ~name:"fib: inserted entries are found" ~count:200
    QCheck.(pair (int_bound 100) (option (int_bound 100)))
    (fun (gi, si) ->
      let fib = Fwd.create () in
      let group = Group.of_index gi in
      let source = Option.map (fun i -> Addr.host ~router:i 1) si in
      (match source with
      | None -> Fwd.insert fib (Fwd.make_star ~group ~rp ~iif:None ~expires:1.)
      | Some src -> Fwd.insert fib (Fwd.make_sg ~group ~source:src ~iif:None ~expires:1. ()));
      match source with
      | None -> Fwd.find_star fib group <> None
      | Some src -> Fwd.find_sg fib group src <> None)

(* [Fwd.iter] against a model: over random inserts and removes, with
   groups interned in random order, the walk visits the model's entries
   in (group, source) order, "(*,G)" first, exactly as [Fwd.entries]
   lists them.  A walk that removes some of the entries it is given
   visits what a walk over a snapshot would, and leaves the rest. *)
let prop_fib_iter_order =
  QCheck.Test.make ~name:"fib: iter walks entries in order" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 80))
    (fun (seed, steps) ->
      let prng = Pim_util.Prng.create seed in
      let fib = Fwd.create () in
      let model = ref [] in
      let key_of (gi, si) = (Group.of_index gi, Option.map (fun i -> Addr.host ~router:i 1) si) in
      for _ = 1 to steps do
        let k =
          ( Pim_util.Prng.int prng 8,
            if Pim_util.Prng.int prng 4 = 0 then None else Some (Pim_util.Prng.int prng 6) )
        in
        let group, source = key_of k in
        if List.mem k !model then begin
          if Pim_util.Prng.bool prng then begin
            Fwd.remove fib group source;
            model := List.filter (( <> ) k) !model
          end
        end
        else begin
          (match source with
          | None -> Fwd.insert fib (Fwd.make_star ~group ~rp ~iif:None ~expires:1.)
          | Some source -> Fwd.insert fib (Fwd.make_sg ~group ~source ~iif:None ~expires:1. ()));
          model := k :: !model
        end
      done;
      let keys es = List.map (fun (e : Fwd.entry) -> (e.Fwd.group, e.Fwd.source)) es in
      let expected =
        List.map key_of !model
        |> List.sort (fun (g1, s1) (g2, s2) ->
               match Group.compare g1 g2 with 0 -> Option.compare Addr.compare s1 s2 | c -> c)
      in
      let visited = ref [] in
      Fwd.iter fib (fun e -> visited := e :: !visited);
      let in_order = keys (List.rev !visited) = expected && keys (Fwd.entries fib) = expected in
      let snapshot = Fwd.entries fib in
      let doomed (e : Fwd.entry) = Pim_util.Prng.bool prng || Fwd.is_star e in
      let removed = ref [] and walked = ref [] in
      Fwd.iter fib (fun e ->
          walked := e :: !walked;
          if doomed e then begin
            removed := e :: !removed;
            Fwd.remove fib e.Fwd.group e.Fwd.source
          end);
      let survivors = List.filter (fun e -> not (List.memq e !removed)) snapshot in
      in_order
      && List.length !walked = List.length snapshot
      && List.for_all2 ( == ) (List.rev !walked) snapshot
      && keys (Fwd.entries fib) = keys survivors
      && Fwd.count fib = List.length survivors)

(* [Fwd.star_of] against a lookup by group: over random inserts, removes
   and clears, every entry ever inserted, removed ones included, reaches
   through its slot the "(*,G)" that [find_star] finds for its group. *)
let prop_fib_star_of =
  QCheck.Test.make ~name:"fib: star_of is find_star" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 80))
    (fun (seed, steps) ->
      let prng = Pim_util.Prng.create seed in
      let fib = Fwd.create () in
      let seen = ref [] in
      let linked (e : Fwd.entry) =
        match (Fwd.star_of e, Fwd.find_star fib e.Fwd.group) with
        | Some a, Some b -> a == b
        | None, None -> true
        | _ -> false
      in
      let ok = ref true in
      for _ = 1 to steps do
        let group = Group.of_index (Pim_util.Prng.int prng 5) in
        let source =
          if Pim_util.Prng.int prng 3 = 0 then None
          else Some (Addr.host ~router:(Pim_util.Prng.int prng 4) 1)
        in
        (match Pim_util.Prng.int prng 10 with
        | 0 -> Fwd.clear fib
        | 1 | 2 | 3 -> Fwd.remove fib group source
        | _ ->
          let present =
            match source with None -> Fwd.find_star fib group <> None | Some s -> Fwd.mem_sg fib group s
          in
          if not present then begin
            let e =
              match source with
              | None -> Fwd.make_star ~group ~rp ~iif:None ~expires:1.
              | Some source -> Fwd.make_sg ~group ~source ~iif:None ~expires:1. ()
            in
            if Fwd.star_of e <> None then ok := false;
            Fwd.insert fib e;
            seen := e :: !seen
          end);
        if not (List.for_all linked !seen) then ok := false
      done;
      !ok)

(* [Fwd.iter_due] visits an entry when its group changed since its last
   visit or its [due] time has come, and [Fwd.iter_stars] only the
   "(*,G)"s, both in [Fwd.iter] order. *)
let test_fib_iter_due () =
  let fib = Fwd.create () in
  let g1 = Group.of_index 1 and g2 = Group.of_index 2 in
  let star1 = Fwd.make_star ~group:g1 ~rp ~iif:None ~expires:10. in
  let sg1 = Fwd.make_sg ~group:g1 ~source:(Addr.host ~router:1 1) ~iif:None ~expires:10. () in
  let star2 = Fwd.make_star ~group:g2 ~rp ~iif:None ~expires:20. in
  List.iter (Fwd.insert fib) [ sg1; star2; star1 ];
  let walk ~now ~all =
    let v = ref [] in
    Fwd.iter_due fib ~now ~all
      (fun () (e : Fwd.entry) ->
        v := e :: !v;
        ignore (Fwd.prune_expired_oifs e ~now);
        Fwd.plan_due e)
      ();
    List.rev !v
  in
  let same = Alcotest.(check (list bool)) in
  let is l = List.map (fun e -> List.memq e l) [ star1; sg1; star2 ] in
  same "new entries are due" [ true; true; true ] (is (walk ~now:1. ~all:false));
  same "nothing due" [ false; false; false ] (is (walk ~now:2. ~all:false));
  let order l = List.length l = 3 && List.for_all2 ( == ) l [ star1; sg1; star2 ] in
  Alcotest.(check bool) "all visits every entry, in order" true (order (walk ~now:2. ~all:true));
  Fwd.add_oif star1 3 ~expires:5. ~local:false;
  same "a new oif makes its group due" [ true; true; false ] (is (walk ~now:2. ~all:false));
  same "its deadline is the (S,G)'s too" [ false; false; false ] (is (walk ~now:4.9 ~all:false));
  same "deadline reached" [ true; true; false ] (is (walk ~now:5. ~all:false));
  Fwd.touch star2;
  same "touch" [ false; false; true ] (is (walk ~now:6. ~all:false));
  Fwd.touch sg1;
  same "an (S,G)'s touch is its own" [ false; true; false ] (is (walk ~now:6. ~all:false));
  same "entry timer" [ true; true; false ] (is (walk ~now:10. ~all:false));
  let stars = ref [] in
  Fwd.iter_stars fib (fun () e -> stars := e :: !stars) ();
  Alcotest.(check bool) "iter_stars" true (List.length !stars = 2 && List.for_all2 ( == ) !stars [ star2; star1 ]);
  let rev = ref [] in
  Fwd.iter_stars_rev fib (fun () e -> rev := e :: !rev) ();
  Alcotest.(check bool) "iter_stars_rev" true (List.length !rev = 2 && List.for_all2 ( == ) !rev [ star1; star2 ])

(* The oif list as it was kept before [add_oif] sorted it: newest first,
   with [live_oifs] filtering, mapping and sorting on every call.  The
   sorted list must answer exactly as this reference does. *)
module Ref_oifs = struct
  type t = { mutable oifs : Fwd.oif list }

  let add r iface ~expires ~local =
    match List.find_opt (fun (o : Fwd.oif) -> o.iface = iface) r.oifs with
    | Some o ->
      o.expires <- max o.expires expires;
      o.local <- o.local || local
    | None -> r.oifs <- { Fwd.iface; expires; local } :: r.oifs

  let remove r iface = r.oifs <- List.filter (fun (o : Fwd.oif) -> o.iface <> iface) r.oifs

  let live r ~iif ~now =
    r.oifs
    |> List.filter (fun (o : Fwd.oif) -> (o.local || o.expires > now) && Some o.iface <> iif)
    |> List.map (fun (o : Fwd.oif) -> o.iface)
    |> List.sort Int.compare

  let prune_expired r ~now =
    let before = List.length r.oifs in
    r.oifs <- List.filter (fun (o : Fwd.oif) -> o.local || o.expires > now) r.oifs;
    List.length r.oifs <> before

  (* Compared as sets of (iface, expires, local): the reference's order is
     insertion order, the entry's is interface order. *)
  let canon oifs =
    List.map (fun (o : Fwd.oif) -> (o.iface, o.expires, o.local)) oifs |> List.sort compare
end

let prop_oifs_match_reference =
  QCheck.Test.make ~name:"oifs: sorted list matches the reference"
    ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 60))
    (fun (seed, steps) ->
      let prng = Pim_util.Prng.create seed in
      let iif = if Pim_util.Prng.bool prng then Some (Pim_util.Prng.int prng 8) else None in
      let e = Fwd.make_sg ~group:g ~source:s ~iif ~expires:100. () in
      let r = { Ref_oifs.oifs = [] } in
      let ok = ref true in
      let now = ref 0. in
      let sorted l = List.sort_uniq Int.compare l = l in
      for _ = 1 to steps do
        (* Interfaces 0..7, including the iif and the local pseudo-iface -1,
           drawn in any order. *)
        let iface = Pim_util.Prng.int prng 9 - 1 in
        (match Pim_util.Prng.int prng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
          let expires = !now +. float_of_int (Pim_util.Prng.int prng 20) in
          let local = Pim_util.Prng.int prng 5 = 0 in
          Fwd.add_oif e iface ~expires ~local;
          Ref_oifs.add r iface ~expires ~local
        | 5 ->
          Fwd.remove_oif e iface;
          Ref_oifs.remove r iface
        | 6 | 7 ->
          let a = Fwd.prune_expired_oifs e ~now:!now and b = Ref_oifs.prune_expired r ~now:!now in
          if a <> b then ok := false
        | _ -> now := !now +. float_of_int (Pim_util.Prng.int prng 6));
        let live = Fwd.live_oifs e ~now:!now in
        if live <> Ref_oifs.live r ~iif ~now:!now then ok := false;
        if Fwd.has_live_oif e ~now:!now <> (live <> []) then ok := false;
        if Ref_oifs.canon e.Fwd.oifs <> Ref_oifs.canon r.Ref_oifs.oifs then ok := false;
        if not (sorted (List.map (fun (o : Fwd.oif) -> o.iface) e.Fwd.oifs)) then ok := false
      done;
      !ok)

(* Nothing expired: [prune_expired_oifs] reports so and keeps the very
   same list. *)
let test_prune_nothing_expired () =
  let e = Fwd.make_star ~group:g ~rp ~iif:None ~expires:100. in
  Fwd.add_oif e 4 ~expires:50. ~local:false;
  Fwd.add_oif e 1 ~expires:0. ~local:true;
  let before = e.Fwd.oifs in
  Alcotest.(check bool) "nothing pruned" false (Fwd.prune_expired_oifs e ~now:10.);
  Alcotest.(check bool) "list untouched" true (e.Fwd.oifs == before);
  Alcotest.(check (list int)) "ascending" [ 1; 4 ] (Fwd.live_oifs e ~now:10.)

(* Iface_timers against the hash table it replaced *)

module Timers = Pim_mcast.Iface_timers

type timer_op =
  | Set of int * float
  | Clear of int
  | Expire of float

(* Interfaces from the pseudo interface -1 up to 7, and times on both
   sides of each other and equal to each other, so sets land on expired
   interfaces, expiries hit deadlines exactly, and probes see interfaces
   that have expired but have not been swept. *)
let timer_iface = QCheck.Gen.int_range (-1) 7

let timer_time = QCheck.Gen.oneofl [ 5.; 9.99; 10.; 10.01; 15. ]

let timer_ops =
  QCheck.Gen.(
    list_size (int_bound 40)
      (frequency
         [
           (5, map2 (fun i d -> Set (i, d)) timer_iface timer_time);
           (2, map (fun i -> Clear i) timer_iface);
           (2, map (fun n -> Expire n) timer_time);
         ]))

(* Every observation the protocols make, at every probe time, on every
   interface the ops can name and one on each side of them. *)
let timers_agree t r =
  let find_opt f x = match f x with d -> Some d | exception Not_found -> None in
  Timers.count t = Timers_reference.count r
  && List.for_all
       (fun i ->
         find_opt (Timers.find t) i = find_opt (Timers_reference.find r) i
         && List.for_all
              (fun now -> Timers.live t i ~now = Timers_reference.live r i ~now)
              [ 5.; 9.99; 10.; 10.01; 15. ])
       (List.init 11 (fun i -> i - 2))

let prop_timers_match_reference =
  QCheck.Test.make ~count:1000 ~name:"timer table: same answers as the hash table"
    (QCheck.make timer_ops) (fun ops ->
      let t = Timers.create () and r = Timers_reference.create () in
      List.for_all
        (fun op ->
          (match op with
          | Set (i, d) ->
            Timers.set t i d;
            Timers_reference.set r i d
          | Clear i ->
            Timers.clear t i;
            Timers_reference.clear r i
          | Expire now ->
            Timers.expire t ~now;
            Timers_reference.expire r ~now);
          timers_agree t r)
        ops)

let test_timers_cases () =
  (* The empty table a "(*,G)" entry walks with: nothing present, nothing
     live, and expiring it changes nothing. *)
  let empty = Timers.create () in
  Timers.expire empty ~now:10.;
  Alcotest.(check int) "empty: count" 0 (Timers.count empty);
  Alcotest.(check bool) "empty: nothing live" false
    (List.exists (fun i -> Timers.live empty i ~now:0.) [ -1; 0; 1; 7 ]);
  Alcotest.check_raises "empty: nothing present" Not_found (fun () -> ignore (Timers.find empty 0));
  (* Expired, not swept: present and counted, but not live. *)
  let t = Timers.create () in
  Timers.set t 3 10.;
  Timers.set t 5 20.;
  Alcotest.(check bool) "expired: not live" false (Timers.live t 3 ~now:12.);
  Alcotest.(check (float 0.)) "expired: still present" 10. (Timers.find t 3);
  Alcotest.(check int) "expired: still counted" 2 (Timers.count t);
  Timers.expire t ~now:12.;
  Alcotest.check_raises "swept: gone" Not_found (fun () -> ignore (Timers.find t 3));
  Alcotest.(check (float 0.)) "swept: the live one stays" 20. (Timers.find t 5);
  Alcotest.(check int) "swept: counted once" 1 (Timers.count t);
  (* Re-setting an expired interface makes it live again, counted once. *)
  Timers.set t 5 11.;
  Alcotest.(check bool) "re-set: expired at 12" false (Timers.live t 5 ~now:12.);
  Timers.set t 5 30.;
  Alcotest.(check bool) "re-set: live again" true (Timers.live t 5 ~now:12.);
  Alcotest.(check int) "re-set: counted once" 1 (Timers.count t);
  (* A deadline equal to now has run out. *)
  Alcotest.(check bool) "deadline = now is out" false (Timers.live t 5 ~now:30.);
  Alcotest.check_raises "below -1" (Invalid_argument "Iface_timers.set: interface below -1")
    (fun () -> Timers.set t (-2) 1.)

(* Id_ring against a FIFO of the last 256 ids recorded *)

module Ring = Pim_mcast.Id_ring

(* Streams of a few hundred records mixing a source's rising sequence
   numbers with repeats of recent ids, ids below everything held, and
   rare spikes far above the rest.  More than 256 records evict, and a
   spike followed by lower ids is a held maximum evicted while smaller
   ids stay: the case that makes the ring rescan. *)
let ring_ids =
  QCheck.Gen.(
    int_range 0 700 >>= fun n ->
    let rec go k next acc =
      if k = 0 then return (List.rev acc)
      else
        frequency
          [
            (10, return next);
            (3, map (fun d -> Int.max 0 (next - 1 - d)) (int_bound 300));
            (2, map (fun d -> next + d) (int_range 1 4));
            (1, map (fun d -> 100_000 + d) (int_bound 50));
          ]
        >>= fun id -> go (k - 1) (Int.max next (if id < 100_000 then id + 1 else next)) (id :: acc)
    in
    go n 0 [])

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* After each record: the same answer for the id just recorded, its
   neighbours, the id above the largest, a spike and a few lower ids; the
   same length and largest id; storage within the power of two at or
   above [max 8 (length)]. *)
let ring_agrees t r id =
  Ring.length t = Id_ring_reference.length r
  && Ring.largest t = Id_ring_reference.largest r
  && Ring.slots t <= pow2_at_least (Int.max 8 (Ring.length t)) 8
  && List.for_all
       (fun x -> Ring.seen t x = Id_ring_reference.seen r x)
       [ id - 1; id; id + 1; Ring.largest t + 1; 100_025; id / 2; id mod 97 ]

let prop_ring_match_reference =
  QCheck.Test.make ~count:200 ~name:"id ring: same answers as the FIFO"
    (QCheck.make ~print:QCheck.Print.(list int) ring_ids) (fun ids ->
      let t = Ring.create () and r = Id_ring_reference.create () in
      Ring.slots t = 0
      && (not (Ring.seen t 0))
      && List.for_all
           (fun id ->
             Ring.record t id;
             Id_ring_reference.record r id;
             ring_agrees t r id)
           ids)

let () =
  Alcotest.run "pim_mcast"
    [
      ("mdata", [ Alcotest.test_case "packet shape" `Quick test_mdata ]);
      ( "entries",
        [
          Alcotest.test_case "star shape" `Quick test_star_entry_shape;
          Alcotest.test_case "sg shape" `Quick test_sg_entry_shape;
          Alcotest.test_case "oif lifecycle" `Quick test_oif_lifecycle;
          Alcotest.test_case "local flag" `Quick test_oif_local_flag;
          Alcotest.test_case "live excludes iif" `Quick test_live_oifs_exclude_iif;
          Alcotest.test_case "local flag merge" `Quick test_oif_or_local_flag_merge;
          Alcotest.test_case "prune with nothing expired" `Quick test_prune_nothing_expired;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_oifs_match_reference;
        ] );
      ( "fib",
        [
          Alcotest.test_case "match rules" `Quick test_fib_match_rules;
          Alcotest.test_case "insert/remove" `Quick test_fib_insert_remove;
          Alcotest.test_case "group entries order" `Quick test_fib_group_entries_order;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_fib_find_after_insert;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_fib_iter_order;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_fib_star_of;
          Alcotest.test_case "iter_due and iter_stars" `Quick test_fib_iter_due;
        ] );
      ( "timers",
        [
          Alcotest.test_case "empty, expired-unswept, re-set" `Quick test_timers_cases;
          QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_timers_match_reference;
        ] );
      ("ring", [ QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) prop_ring_match_reference ]);
    ]
