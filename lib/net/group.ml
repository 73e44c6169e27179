type t = Addr.t

let compare = Addr.compare

let equal = Addr.equal

let hash = Addr.hash

let of_addr a = if Addr.is_multicast a then Some a else None

let of_addr_exn a =
  match of_addr a with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Group.of_addr_exn: %s is not multicast" (Addr.to_string a))

let to_addr g = g

let of_index k =
  assert (k >= 0 && k < 1 lsl 24);
  Addr.of_octets 225 ((k lsr 16) land 0xFF) ((k lsr 8) land 0xFF) (k land 0xFF)

let index g =
  let x = Int32.to_int (Addr.to_int32 g) land 0xFFFFFFFF in
  if (x lsr 24) land 0xFF = 225 then Some (x land 0xFFFFFF) else None

module GH = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

module Interner = struct
  type group = t

  type t = {
    ids : int GH.t;
    mutable groups : group array;
    mutable n : int;
  }

  let create () = { ids = GH.create 64; groups = [||]; n = 0 }

  let count it = it.n

  let id it g = match GH.find it.ids g with id -> id | exception Not_found -> -1

  let intern it g =
    match GH.find_opt it.ids g with
    | Some id -> id
    | None ->
      let id = it.n in
      if id >= Array.length it.groups then begin
        let cap = Int.max 16 (2 * Array.length it.groups) in
        let a = Array.make cap g in
        Array.blit it.groups 0 a 0 id;
        it.groups <- a
      end;
      it.groups.(id) <- g;
      it.n <- id + 1;
      GH.replace it.ids g id;
      id

  let group_of it id =
    if id < 0 || id >= it.n then invalid_arg "Group.Interner.group_of: unknown id";
    it.groups.(id)
end

let of_string s = Option.bind (Addr.of_string s) of_addr

let to_string = Addr.to_string

let pp = Addr.pp
