type payload = ..

type payload += Raw of string

type dst =
  | Unicast of Addr.t
  | Multicast of Group.t

type t = {
  src : Addr.t;
  dst : dst;
  ttl : int;
  size : int;
  payload : payload;
}

let default_ttl = 64

let unicast ~src ~dst ?(ttl = default_ttl) ~size payload =
  { src; dst = Unicast dst; ttl; size; payload }

let multicast ~src ~group ?(ttl = default_ttl) ~size payload =
  { src; dst = Multicast group; ttl; size; payload }

let printers : (payload -> string option) list ref = ref []

let register_printer f = printers := f :: !printers

let payload_to_string p =
  let rec first = function
    | [] -> ( match p with Raw s -> Printf.sprintf "raw(%d bytes)" (String.length s) | _ -> "<payload>")
    | f :: fs -> ( match f p with Some s -> s | None -> first fs)
  in
  first !printers

let pp ppf t =
  let dst =
    match t.dst with
    | Unicast a -> Addr.to_string a
    | Multicast g -> Group.to_string g
  in
  Format.fprintf ppf "%s -> %s ttl=%d %db [%s]" (Addr.to_string t.src) dst t.ttl t.size
    (payload_to_string t.payload)
