module Packet = Pim_net.Packet

type info = {
  seq : int;
  sent_at : float;
}

type Packet.payload += Data of info

let () =
  Packet.register_printer (function
    | Data i -> Some (Printf.sprintf "data seq=%d" i.seq)
    | _ -> None)

let make ~src ~group ~seq ~sent_at ?(size = 1000) () =
  Packet.multicast ~src ~group ~size (Data { seq; sent_at })

let is_data pkt = match pkt.Packet.payload with Data _ -> true | _ -> false
