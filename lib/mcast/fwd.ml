module Group = Pim_net.Group
module Addr = Pim_net.Addr

type oif = {
  iface : Pim_graph.Topology.iface;
  mutable expires : float;
  mutable local : bool;
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
  mutable expires : float;
  mutable rp_deadline : float;
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
    expires;
    rp_deadline = infinity;
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
    expires;
    rp_deadline = infinity;
  }

let is_star e = e.source = None

let key e = (e.group, e.source)

let iif_is e i = match e.iif with Some j -> j = i | None -> false

let find_oif e iface = List.find_opt (fun o -> o.iface = iface) e.oifs

(* [oifs] is kept in ascending interface order, so the live list comes
   out sorted without a sort. *)
let add_oif e iface ~expires ~local =
  match find_oif e iface with
  | Some o ->
    o.expires <- max o.expires expires;
    o.local <- o.local || local
  | None ->
    let rec ins = function
      | o :: tl when o.iface < iface -> o :: ins tl
      | l -> { iface; expires; local } :: l
    in
    e.oifs <- ins e.oifs

let remove_oif e iface = e.oifs <- List.filter (fun o -> o.iface <> iface) e.oifs

let not_iif e i = match e.iif with Some j -> j <> i | None -> true

let oif_live o ~now = o.local || o.expires > now

let is_live e o ~now = oif_live o ~now && not_iif e o.iface

let expired o ~now = not (oif_live o ~now)

let masked pruned i ~now =
  Hashtbl.length pruned > 0
  && match Hashtbl.find pruned i with exp -> exp > now | exception Not_found -> false

let skip _ _ _ _ = ()

(* Top-level recursions with explicit arguments rather than local closures:
   the emptiness tests below allocate nothing. *)
let rec live_in e ~now = function
  | o :: tl -> if is_live e o ~now then o.iface :: live_in e ~now tl else live_in e ~now tl
  | [] -> []

let rec any_live e ~now = function o :: tl -> is_live e o ~now || any_live e ~now tl | [] -> false

let rec any_expired ~now = function o :: tl -> expired o ~now || any_expired ~now tl | [] -> false

let live_oifs e ~now = live_in e ~now e.oifs

let has_live_oif e ~now = any_live e ~now e.oifs

let prune_expired_oifs e ~now =
  any_expired ~now e.oifs
  && begin
    e.oifs <- List.filter (fun o -> not (expired o ~now)) e.oifs;
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

(* Per-group slot: the "(*,G)" entry plus the (S,G) list kept sorted by
   source address, so group-local enumeration needs no sort. *)
type slot = {
  mutable star : entry option;
  mutable sgs : entry list;
}

(* The FIB is keyed by dense group id from a per-FIB interner: router
   state for G lives at [slots.(gid)], an array index instead of a
   hash-table probe on a (group, source option) tuple key.  A lookup for
   a group the router has no state for uses [Interner.id] and touches
   nothing, so data-plane probes never grow the interner. *)
type t = {
  interner : Group.Interner.t;
  mutable slots : slot array;
  mutable size : int;
}

let create () = { interner = Group.Interner.create (); slots = [||]; size = 0 }

(* The group's slot index, or -1 when the router has no slot for [g].
   Lookups index the slot array directly: no option per probe, and no
   closure per source scan. *)
let gid_of t g =
  let gid = Group.Interner.id t.interner g in
  if gid < Array.length t.slots then gid else -1

let rec find_source s = function
  | e :: tl -> (
    match e.source with Some s' when Addr.equal s' s -> Some e | _ -> find_source s tl)
  | [] -> None

let find_sg t g s =
  let gid = gid_of t g in
  if gid < 0 then None else find_source s t.slots.(gid).sgs

let find_star t g =
  let gid = gid_of t g in
  if gid < 0 then None else t.slots.(gid).star

let match_data t g ~src =
  let gid = gid_of t g in
  if gid < 0 then None
  else
    let sl = t.slots.(gid) in
    match find_source src sl.sgs with Some _ as e -> e | None -> sl.star

let ensure_slot t gid =
  if gid >= Array.length t.slots then begin
    let cap = Int.max 16 (Int.max (gid + 1) (2 * Array.length t.slots)) in
    let a = Array.init cap (fun i ->
        if i < Array.length t.slots then t.slots.(i) else { star = None; sgs = [] })
    in
    t.slots <- a
  end;
  t.slots.(gid)

let insert t e =
  let gid = Group.Interner.intern t.interner e.group in
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
  t.size <- t.size + 1

let remove t g s =
  let gid = gid_of t g in
  if gid >= 0 then begin
    let sl = t.slots.(gid) in
    match s with
    | None -> if sl.star <> None then begin sl.star <- None; t.size <- t.size - 1 end
    | Some s ->
      let before = List.length sl.sgs in
      sl.sgs <-
        List.filter
          (fun e -> match e.source with Some s' -> not (Addr.equal s' s) | None -> true)
          sl.sgs;
      if List.length sl.sgs <> before then t.size <- t.size - 1
  end

(* Canonical (group, source) order, with the "(*,G)" entry ahead of its
   (S,G) siblings.  [entries] enumerates in this order so that every
   consumer — sweeps, periodic refresh, invariant checks — visits the
   table in an order independent of interner id assignment. *)
let compare_entry a b =
  match Group.compare a.group b.group with
  | 0 -> Option.compare Addr.compare a.source b.source
  | c -> c

let slot_entries sl = (match sl.star with Some e -> [ e ] | None -> []) @ sl.sgs

let entries t =
  let per_group = ref [] in
  for gid = Array.length t.slots - 1 downto 0 do
    match slot_entries t.slots.(gid) with
    | [] -> ()
    | es -> per_group := (Group.Interner.group_of t.interner gid, es) :: !per_group
  done;
  !per_group
  |> List.sort (fun (g1, _) (g2, _) -> Group.compare g1 g2)
  |> List.concat_map snd

let group_entries t g =
  let gid = gid_of t g in
  if gid < 0 then [] else slot_entries t.slots.(gid)

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

let pp ppf t = List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
