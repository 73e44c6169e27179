(* H5 clean: the callback is bound before it is applied; a plain
   element read is two arguments. *)

let receive hs ~iface pkt =
  for i = 0 to Pim_util.Vec.length hs - 1 do
    let h = Pim_util.Vec.get hs i in
    h ~iface pkt
  done

let sum v =
  let acc = ref 0 in
  for i = 0 to Vec.length v - 1 do
    acc := !acc + Vec.get v i
  done;
  !acc
