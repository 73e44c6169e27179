(** Multicast data packets.

    A single payload constructor shared by every multicast routing protocol
    in the repository, so that link-traversal observers can classify data
    vs. control traffic uniformly.  Readers match it directly — [Data i]
    in the payload, [Multicast g] in the destination — so the per-hop
    path builds no option to learn a packet's group or sequence number. *)

type info = {
  seq : int;  (** per-source sequence number *)
  sent_at : float;  (** origination time, for delay measurements *)
}

type Pim_net.Packet.payload += Data of info

val make :
  src:Pim_net.Addr.t ->
  group:Pim_net.Group.t ->
  seq:int ->
  sent_at:float ->
  ?size:int ->
  unit ->
  Pim_net.Packet.t
(** Build a data packet (default modelled size 1000 bytes). *)

val is_data : Pim_net.Packet.t -> bool
