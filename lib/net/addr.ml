type t = int32

let compare = Int32.compare

let equal = Int32.equal

let hash a = Int32.to_int a land max_int

let of_int32 x = x

let to_int32 x = x

let of_octets a b c d =
  assert (a >= 0 && a <= 255 && b >= 0 && b <= 255);
  assert (c >= 0 && c <= 255 && d >= 0 && d <= 255);
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let octet a i = Int32.to_int (Int32.logand (Int32.shift_right_logical a (8 * (3 - i))) 0xFFl)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d
      when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255 ->
      Some (of_octets a b c d)
    | _ -> None)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Addr.of_string_exn: %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" (octet a 0) (octet a 1) (octet a 2) (octet a 3)

let pp ppf a = Format.pp_print_string ppf (to_string a)

let router i =
  assert (i >= 0 && i < 65536);
  of_octets 10 0 (i lsr 8) (i land 0xFF)

let router_index a =
  if octet a 0 = 10 && octet a 1 = 0 then Some ((octet a 2 lsl 8) lor octet a 3) else None

let host ~router:i k =
  assert (i >= 0 && i < 65536);
  assert (k >= 1 && k <= 255);
  of_octets 10 (128 lor (i lsr 8)) (i land 0xFF) k

let host_router_index_exn a =
  let b = octet a 1 in
  if octet a 0 = 10 && b land 128 <> 0 then ((b land 127) lsl 8) lor octet a 2
  else raise Not_found

let host_router_index a =
  match host_router_index_exn a with r -> Some r | exception Not_found -> None

let owner_index a =
  if octet a 0 <> 10 then -1
  else
    let b = octet a 1 in
    if b = 0 then (octet a 2 lsl 8) lor octet a 3
    else if b land 128 <> 0 then ((b land 127) lsl 8) lor octet a 2
    else -1

let is_multicast a = octet a 0 >= 224 && octet a 0 <= 239

let all_pim_routers = of_octets 224 0 0 2
