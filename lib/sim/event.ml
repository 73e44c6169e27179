module Json = Pim_util.Json

type route = {
  group : string;
  source : string option;
}

type t =
  | Join of { route : route; iface : int }
  | Prune of { route : route; iface : int }
  | Graft of { route : route; iface : int }
  | Register of { group : string; source : string }
  | Register_stop of { group : string; source : string }
  | Spt_switch of { group : string; source : string }
  | Assert of { group : string; iface : int; winner : int }
  | Entry_install of { route : route }
  | Entry_expire of { route : route }
  | Pkt_send of { src : string; group : string; iface : int }
  | Pkt_deliver of { src : string; group : string; iface : int }
  | Pkt_drop of { src : string; group : string; iface : int; reason : string }
  | Candidate_rp of { rp : string; priority : int; groups : int }
  | Bsr_elected of { bsr : string; priority : int }
  | Rp_mapping of { group : string; rp : string option }
  | Rp_failover of { group : string; from_rp : string option; to_rp : string }
  | Fault_injected of { action : string }
  | Checkpoint_digest of { digest : string }
  | Window_roll of { index : int; t_start : float; t_end : float }
  | Local_member of { group : string; iface : int }
  | No_rp of { group : string }
  | Restart
  | Spt_bit of { group : string; source : string }
  | Rp_retarget of { group : string; rp : string }
  | Join_suppressed of { route : route }
  | Prune_override of { route : route; iface : int }
  | Rpf_change of { route : route; from_nbr : int option; to_nbr : int option }
  | On_tree of { group : string }
  | Flush of { group : string }
  | Quit of { group : string }

let nullable f = function Some x -> f x | None -> Json.Null

let str_or_null = nullable (fun s -> Json.Str s)

let int_or_null = nullable (fun n -> Json.Int n)

let route_fields r = [ ("group", Json.Str r.group); ("source", str_or_null r.source) ]

let group_field g = ("group", Json.Str g)

let to_json ev =
  let typed name fields = Json.Obj (("type", Json.Str name) :: fields) in
  let routed name route iface = typed name (route_fields route @ [ ("iface", Json.Int iface) ]) in
  let sg name group source = typed name [ group_field group; ("source", Json.Str source) ] in
  let pkt name src group iface extra =
    typed name
      ([ ("src", Json.Str src); group_field group; ("iface", Json.Int iface) ] @ extra)
  in
  match ev with
  | Join e -> routed "join" e.route e.iface
  | Prune e -> routed "prune" e.route e.iface
  | Graft e -> routed "graft" e.route e.iface
  | Register e -> sg "register" e.group e.source
  | Register_stop e -> sg "register-stop" e.group e.source
  | Spt_switch e -> sg "spt-switch" e.group e.source
  | Assert e ->
    typed "assert"
      [ group_field e.group; ("iface", Json.Int e.iface); ("winner", Json.Int e.winner) ]
  | Entry_install e -> typed "entry-install" (route_fields e.route)
  | Entry_expire e -> typed "entry-expire" (route_fields e.route)
  | Pkt_send e -> pkt "pkt-send" e.src e.group e.iface []
  | Pkt_deliver e -> pkt "pkt-deliver" e.src e.group e.iface []
  | Pkt_drop e -> pkt "pkt-drop" e.src e.group e.iface [ ("reason", Json.Str e.reason) ]
  | Candidate_rp e ->
    typed "crp-advert"
      [ ("rp", Json.Str e.rp); ("priority", Json.Int e.priority); ("groups", Json.Int e.groups) ]
  | Bsr_elected e ->
    typed "bsr-elected" [ ("bsr", Json.Str e.bsr); ("priority", Json.Int e.priority) ]
  | Rp_mapping e ->
    typed "rp-mapping-change" [ group_field e.group; ("rp", str_or_null e.rp) ]
  | Rp_failover e ->
    typed "rp-failover"
      [ group_field e.group; ("from", str_or_null e.from_rp); ("to", Json.Str e.to_rp) ]
  | Fault_injected e -> typed "fault-injected" [ ("action", Json.Str e.action) ]
  | Checkpoint_digest e -> typed "checkpoint-digest" [ ("digest", Json.Str e.digest) ]
  | Window_roll e ->
    typed "window-roll"
      [
        ("index", Json.Int e.index);
        ("t_start", Json.Float e.t_start);
        ("t_end", Json.Float e.t_end);
      ]
  | Local_member e -> typed "member" [ group_field e.group; ("iface", Json.Int e.iface) ]
  | No_rp e -> typed "no-rp" [ group_field e.group ]
  | Restart -> typed "restart" []
  | Spt_bit e -> sg "spt-bit" e.group e.source
  | Rp_retarget e -> typed "rp-retarget" [ group_field e.group; ("rp", Json.Str e.rp) ]
  | Join_suppressed e -> typed "suppress" (route_fields e.route)
  | Prune_override e -> routed "override" e.route e.iface
  | Rpf_change e ->
    typed "rpf-change"
      (route_fields e.route @ [ ("from", int_or_null e.from_nbr); ("to", int_or_null e.to_nbr) ])
  | On_tree e -> typed "on-tree" [ group_field e.group ]
  | Flush e -> typed "flush" [ group_field e.group ]
  | Quit e -> typed "quit" [ group_field e.group ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field conv what j name =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-%s field %S" what name)

let str_field = field Json.to_str "string"

let int_field = field Json.to_int "integer"

let float_field = field Json.to_float "number"

(* A field that is present and either null or of [conv]'s type. *)
let opt_field conv j name =
  match Json.member name j with
  | Some Json.Null -> Ok None
  | m -> (
    match Option.bind m conv with
    | Some _ as v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name))

let route_of j =
  let* group = str_field j "group" in
  let* source = opt_field Json.to_str j "source" in
  Ok { group; source }

let of_json j =
  let* ty = str_field j "type" in
  match ty with
  | "join" | "prune" | "graft" | "override" ->
    let* route = route_of j in
    let* iface = int_field j "iface" in
    Ok
      (match ty with
      | "join" -> Join { route; iface }
      | "prune" -> Prune { route; iface }
      | "graft" -> Graft { route; iface }
      | _ -> Prune_override { route; iface })
  | "register" | "register-stop" | "spt-switch" | "spt-bit" ->
    let* group = str_field j "group" in
    let* source = str_field j "source" in
    Ok
      (match ty with
      | "register" -> Register { group; source }
      | "register-stop" -> Register_stop { group; source }
      | "spt-switch" -> Spt_switch { group; source }
      | _ -> Spt_bit { group; source })
  | "assert" ->
    let* group = str_field j "group" in
    let* iface = int_field j "iface" in
    let* winner = int_field j "winner" in
    Ok (Assert { group; iface; winner })
  | "entry-install" | "entry-expire" | "suppress" ->
    let* route = route_of j in
    Ok
      (match ty with
      | "entry-install" -> Entry_install { route }
      | "entry-expire" -> Entry_expire { route }
      | _ -> Join_suppressed { route })
  | "pkt-send" | "pkt-deliver" ->
    let* src = str_field j "src" in
    let* group = str_field j "group" in
    let* iface = int_field j "iface" in
    Ok
      (if String.equal ty "pkt-send" then Pkt_send { src; group; iface }
       else Pkt_deliver { src; group; iface })
  | "pkt-drop" ->
    let* src = str_field j "src" in
    let* group = str_field j "group" in
    let* iface = int_field j "iface" in
    let* reason = str_field j "reason" in
    Ok (Pkt_drop { src; group; iface; reason })
  | "crp-advert" ->
    let* rp = str_field j "rp" in
    let* priority = int_field j "priority" in
    let* groups = int_field j "groups" in
    Ok (Candidate_rp { rp; priority; groups })
  | "bsr-elected" ->
    let* bsr = str_field j "bsr" in
    let* priority = int_field j "priority" in
    Ok (Bsr_elected { bsr; priority })
  | "rp-mapping-change" ->
    let* group = str_field j "group" in
    let* rp = opt_field Json.to_str j "rp" in
    Ok (Rp_mapping { group; rp })
  | "rp-failover" ->
    let* group = str_field j "group" in
    let* from_rp = opt_field Json.to_str j "from" in
    let* to_rp = str_field j "to" in
    Ok (Rp_failover { group; from_rp; to_rp })
  | "fault-injected" ->
    let* action = str_field j "action" in
    Ok (Fault_injected { action })
  | "checkpoint-digest" ->
    let* digest = str_field j "digest" in
    Ok (Checkpoint_digest { digest })
  | "window-roll" ->
    let* index = int_field j "index" in
    let* t_start = float_field j "t_start" in
    let* t_end = float_field j "t_end" in
    Ok (Window_roll { index; t_start; t_end })
  | "member" ->
    let* group = str_field j "group" in
    let* iface = int_field j "iface" in
    Ok (Local_member { group; iface })
  | "restart" -> Ok Restart
  | "rp-retarget" ->
    let* group = str_field j "group" in
    let* rp = str_field j "rp" in
    Ok (Rp_retarget { group; rp })
  | "rpf-change" ->
    let* route = route_of j in
    let* from_nbr = opt_field Json.to_int j "from" in
    let* to_nbr = opt_field Json.to_int j "to" in
    Ok (Rpf_change { route; from_nbr; to_nbr })
  | "no-rp" | "on-tree" | "flush" | "quit" ->
    let* group = str_field j "group" in
    Ok
      (match ty with
      | "no-rp" -> No_rp { group }
      | "on-tree" -> On_tree { group }
      | "flush" -> Flush { group }
      | _ -> Quit { group })
  | other -> Error (Printf.sprintf "unknown event type %S" other)
