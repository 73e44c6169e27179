module Group = Pim_net.Group
module Addr = Pim_net.Addr

type oif = {
  iface : Pim_graph.Topology.iface;
  mutable expires : float;
  mutable local : bool;
}

type ext = ..

type ext += No_ext

type timers = {
  mutable expires : float;
  mutable rp_deadline : float;
  mutable due : float;
}

type entry = {
  group : Group.t;
  source : Addr.t option;
  mutable rp : Addr.t option;
  mutable iif : Pim_graph.Topology.iface option;
  mutable oifs : oif list;
  mutable wc_bit : bool;
  mutable rp_bit : bool;
  mutable spt_bit : bool;
  timers : timers;
  mutable ext : ext;
  mutable home : slot;
}

(* Per-group slot: the "(*,G)" entry plus the (S,G) list kept sorted by
   source address, so group-local enumeration needs no sort. *)
and slot = {
  mutable star : entry option;
  mutable sgs : entry list;
}

let make_star ~group ~rp ~iif ~expires =
  {
    group;
    source = None;
    rp = Some rp;
    iif;
    oifs = [];
    wc_bit = true;
    rp_bit = true;
    spt_bit = false;
    timers = { expires; rp_deadline = infinity; due = neg_infinity };
    ext = No_ext;
    home = { star = None; sgs = [] };
  }

let make_sg ~group ~source ?rp ?(rp_bit = false) ~iif ~expires () =
  {
    group;
    source = Some source;
    rp;
    iif;
    oifs = [];
    wc_bit = false;
    rp_bit;
    spt_bit = false;
    timers = { expires; rp_deadline = infinity; due = neg_infinity };
    ext = No_ext;
    home = { star = None; sgs = [] };
  }

let is_star e = e.source = None

let rec due_now = function
  | e :: tl ->
    e.timers.due <- neg_infinity;
    due_now tl
  | [] -> ()

(* A sweep of a "(*,G)" reads its own state only, and one of an (S,G) its
   own and its "(*,G)"'s: so a write to a "(*,G)" makes its (S,G)s due
   too. *)
let touch e =
  e.timers.due <- neg_infinity;
  if is_star e then due_now e.home.sgs

let star_of e = e.home.star

(* [x] stays unboxed: [timers] is an all-float record, stored flat, so
   the store allocates nothing and adds no old entry to the remembered
   set. *)
let keepalive e ~now ~linger =
  let x = now +. linger in
  if x > e.timers.expires then e.timers.expires <- x

let iif_is e i = match e.iif with Some j -> j = i | None -> false

(* Top-level recursions with explicit arguments rather than local closures
   or options: a lookup, a refresh and a removal allocate nothing beyond
   the cells they change. *)
let rec oif_in iface = function
  | o :: tl -> if o.iface = iface then o else oif_in iface tl
  | [] -> raise Not_found

let find_oif_exn e iface = oif_in iface e.oifs

(* [oifs] is kept in ascending interface order, so the live list comes
   out sorted without a sort. *)
let rec ins_oif iface ~expires ~local = function
  | o :: tl when o.iface < iface -> o :: ins_oif iface ~expires ~local tl
  | l -> { iface; expires; local } :: l

(* Only a new oif or a newly set [local] flag changes what a sweep sees;
   an extended timer just makes the entry due earlier than it needs. *)
let add_oif e iface ~expires ~local =
  match oif_in iface e.oifs with
  | o ->
    if expires > o.expires then o.expires <- expires;
    if local && not o.local then begin
      o.local <- true;
      touch e
    end
  | exception Not_found ->
    e.oifs <- ins_oif iface ~expires ~local e.oifs;
    touch e

(* [l] without [iface]'s oif, which it holds. *)
let rec drop_oif iface = function
  | o :: tl -> if o.iface = iface then tl else o :: drop_oif iface tl
  | [] -> []

let rec has_oif iface = function o :: tl -> o.iface = iface || has_oif iface tl | [] -> false

let remove_oif e iface =
  if has_oif iface e.oifs then begin
    e.oifs <- drop_oif iface e.oifs;
    touch e
  end

let not_iif e i = match e.iif with Some j -> j <> i | None -> true

let oif_live o ~now = o.local || o.expires > now

let is_live e o ~now = oif_live o ~now && not_iif e o.iface

let expired o ~now = not (oif_live o ~now)

let skip _ _ _ _ = ()

let rec any_local = function o :: tl -> o.local || any_local tl | [] -> false

let has_local e = any_local e.oifs

(* Top-level recursions with explicit arguments rather than local closures:
   the emptiness tests below allocate nothing. *)
let rec live_in e ~now = function
  | o :: tl -> if is_live e o ~now then o.iface :: live_in e ~now tl else live_in e ~now tl
  | [] -> []

let rec any_live e ~now = function o :: tl -> is_live e o ~now || any_live e ~now tl | [] -> false

let rec any_expired ~now = function o :: tl -> expired o ~now || any_expired ~now tl | [] -> false

let live_oifs e ~now = live_in e ~now e.oifs

let has_live_oif e ~now = any_live e ~now e.oifs

let rec drop_expired ~now = function
  | o :: tl -> if expired o ~now then drop_expired ~now tl else o :: drop_expired ~now tl
  | [] -> []

(* No {!touch}: the oifs dropped were already dead, so no walk's result
   changes, and their deadlines made every entry that inherits them due. *)
let prune_expired_oifs e ~now =
  any_expired ~now e.oifs
  && begin
    e.oifs <- drop_expired ~now e.oifs;
    true
  end

let pp_entry ppf e =
  let src =
    match e.source with None -> "*" | Some s -> Addr.to_string s
  in
  let flags =
    String.concat ""
      [
        (if e.wc_bit then "W" else "");
        (if e.rp_bit then "R" else "");
        (if e.spt_bit then "S" else "");
      ]
  in
  let oifs =
    String.concat ","
      (List.map
         (fun o -> Printf.sprintf "%d%s" o.iface (if o.local then "(loc)" else ""))
         (List.sort (fun a b -> Int.compare a.iface b.iface) e.oifs))
  in
  Format.fprintf ppf "(%s, %s) iif=%s oifs={%s} flags=%s rp=%s" src
    (Group.to_string e.group)
    (match e.iif with None -> "-" | Some i -> string_of_int i)
    oifs flags
    (match e.rp with None -> "-" | Some rp -> Addr.to_string rp)

(* The FIB is keyed by dense group id from a per-FIB interner: router
   state for G lives at [slots.(gid)], an array index instead of a
   hash-table probe on a (group, source option) tuple key.  A lookup for
   a group the router has no state for uses [Interner.id] and touches
   nothing, so data-plane probes never grow the interner.  [order] holds
   the interned ids sorted by group, updated as each group is interned,
   so walks in canonical order need no sort. *)
type t = {
  interner : Group.Interner.t;
  mutable slots : slot array;
  mutable order : int array;
  mutable size : int;
}

let create () =
  { interner = Group.Interner.create (); slots = [||]; order = [||]; size = 0 }

(* The group's slot index, or -1 when the router has no slot for [g].
   Lookups index the slot array directly: no option per probe, and no
   closure per source scan. *)
let gid_of t g =
  let gid = Group.Interner.id t.interner g in
  if gid < Array.length t.slots then gid else -1

(* [s]'s entry in a slot's (S,G) list.  @raise Not_found *)
let rec find_source s = function
  | e :: tl -> (
    match e.source with Some s' when Addr.equal s' s -> e | _ -> find_source s tl)
  | [] -> raise Not_found

let find_sg_exn t g s =
  let gid = gid_of t g in
  if gid < 0 then raise Not_found else find_source s t.slots.(gid).sgs

let find_sg t g s = match find_sg_exn t g s with e -> Some e | exception Not_found -> None

let mem_sg t g s = match find_sg_exn t g s with _ -> true | exception Not_found -> false

let find_star t g =
  let gid = gid_of t g in
  if gid < 0 then None else t.slots.(gid).star

let match_data t g ~src =
  let gid = gid_of t g in
  if gid < 0 then raise Not_found
  else
    let sl = t.slots.(gid) in
    match find_source src sl.sgs with
    | e -> e
    | exception Not_found -> ( match sl.star with Some e -> e | None -> raise Not_found)

let ensure_slot t gid =
  if gid >= Array.length t.slots then begin
    let cap = Int.max 16 (Int.max (gid + 1) (2 * Array.length t.slots)) in
    let a = Array.init cap (fun i ->
        if i < Array.length t.slots then t.slots.(i) else { star = None; sgs = [] })
    in
    t.slots <- a
  end;
  t.slots.(gid)

(* Insertion step for a newly interned [gid]: groups are interned rarely
   and few per router, so a linear shift is cheap. *)
let index_group t gid =
  if gid >= Array.length t.order then begin
    let a = Array.make (Int.max 16 (2 * Array.length t.order)) 0 in
    Array.blit t.order 0 a 0 gid;
    t.order <- a
  end;
  let g = Group.Interner.group_of t.interner gid in
  let k = ref gid in
  while !k > 0 && Group.compare (Group.Interner.group_of t.interner t.order.(!k - 1)) g > 0 do
    t.order.(!k) <- t.order.(!k - 1);
    decr k
  done;
  t.order.(!k) <- gid

let insert t e =
  let known = Group.Interner.count t.interner in
  let gid = Group.Interner.intern t.interner e.group in
  if gid = known then index_group t gid;
  let sl = ensure_slot t gid in
  (match e.source with
  | None ->
    if sl.star <> None then invalid_arg "Fwd.insert: duplicate entry";
    sl.star <- Some e
  | Some s ->
    let rec ins = function
      | e' :: tl as l -> (
        match e'.source with
        | Some s' ->
          let c = Addr.compare s s' in
          if c = 0 then invalid_arg "Fwd.insert: duplicate entry"
          else if c < 0 then e :: l
          else e' :: ins tl
        | None -> assert false)
      | [] -> [ e ]
    in
    sl.sgs <- ins sl.sgs);
  e.home <- sl;
  touch e;
  t.size <- t.size + 1

let remove t g s =
  let gid = gid_of t g in
  if gid >= 0 then begin
    let sl = t.slots.(gid) in
    match s with
    | None ->
      if sl.star <> None then begin
        sl.star <- None;
        due_now sl.sgs;
        t.size <- t.size - 1
      end
    | Some s ->
      let before = List.length sl.sgs in
      sl.sgs <-
        List.filter
          (fun e -> match e.source with Some s' -> not (Addr.equal s' s) | None -> true)
          sl.sgs;
      if List.length sl.sgs <> before then t.size <- t.size - 1
  end

(* Canonical (group, source) order, with the "(*,G)" entry ahead of its
   (S,G) siblings.  [iter] walks in this order so that every consumer —
   sweeps, periodic refresh, invariant checks — visits the table in an
   order independent of interner id assignment. *)
let compare_entry a b =
  match Group.compare a.group b.group with
  | 0 -> Option.compare Addr.compare a.source b.source
  | c -> c

let slot_entries sl = (match sl.star with Some e -> [ e ] | None -> []) @ sl.sgs

(* Groups through [order], then each slot's "(*,G)" and its source-sorted
   (S,G) list.  [f] removing the entry it was given replaces [sl.star] or
   [sl.sgs] while the walk goes on over the list it already holds;
   inserting would intern groups under the loop, hence the contract. *)
let iter t f =
  for k = 0 to Group.Interner.count t.interner - 1 do
    let sl = t.slots.(t.order.(k)) in
    (match sl.star with Some e -> f e | None -> ());
    List.iter f sl.sgs
  done

let iter_stars t f x =
  for k = 0 to Group.Interner.count t.interner - 1 do
    match t.slots.(t.order.(k)).star with Some e -> f x e | None -> ()
  done

let iter_stars_rev t f x =
  for k = Group.Interner.count t.interner - 1 downto 0 do
    match t.slots.(t.order.(k)).star with Some e -> f x e | None -> ()
  done

let rec visit_due f x ~now ~all = function
  | e :: tl ->
    if all || now >= e.timers.due then f x e;
    visit_due f x ~now ~all tl
  | [] -> ()

let iter_due t ~now ~all f x =
  for k = 0 to Group.Interner.count t.interner - 1 do
    let sl = t.slots.(t.order.(k)) in
    (match sl.star with Some e when all || now >= e.timers.due -> f x e | _ -> ());
    visit_due f x ~now ~all sl.sgs
  done

(* The earliest non-local deadline among [l], or [d]: boxed floats are
   passed and chosen, never built, so the walk allocates nothing. *)
let rec oif_deadline d = function
  | o :: tl -> oif_deadline (if (not o.local) && o.expires < d then o.expires else d) tl
  | [] -> d

let plan_due e =
  let d = oif_deadline infinity e.oifs in
  let d = match star_of e with Some s when not (is_star e) -> oif_deadline d s.oifs | _ -> d in
  let tm = e.timers in
  tm.due <- d;
  if has_local e then begin if tm.rp_deadline < tm.due then tm.due <- tm.rp_deadline end
  else if tm.expires < tm.due then tm.due <- tm.expires

let due_by e d = if d < e.timers.due then e.timers.due <- d

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let group_entries t g =
  let gid = gid_of t g in
  if gid < 0 then [] else slot_entries t.slots.(gid)

let sources t g =
  let gid = gid_of t g in
  if gid < 0 then [] else t.slots.(gid).sgs

let count t = t.size

let clear t =
  (* A restart loses forwarding state; interned ids survive (they are
     stable identifiers, not state). *)
  Array.iter
    (fun sl ->
      sl.star <- None;
      sl.sgs <- [])
    t.slots;
  t.size <- 0

let pp ppf t = iter t (fun e -> Format.fprintf ppf "%a@." pp_entry e)
