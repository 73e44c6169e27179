(* H5 positive: a callback fetched from a Vec and applied in the same
   application, flat and parenthesised. *)

let receive hs ~iface pkt =
  for i = 0 to Pim_util.Vec.length hs - 1 do
    Pim_util.Vec.get hs i ~iface pkt
  done

let notify subs x =
  for i = 0 to Vec.length subs - 1 do
    (Vec.get subs i) x
  done
