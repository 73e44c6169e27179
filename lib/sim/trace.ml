module Json = Pim_util.Json

type record = {
  time : float;
  node : int;
  event : Event.t;
}

type t = {
  eng : Engine.t;
  mutable entries : record list;  (* reversed *)
}

let create eng = { eng; entries = [] }

let active = Option.is_some

let emit t ~node event = t.entries <- { time = Engine.now t.eng; node; event } :: t.entries

let records t = List.rev t.entries

let record_to_json r =
  match Event.to_json r.event with
  | Json.Obj fields -> Json.Obj (("t", Json.Float r.time) :: ("node", Json.Int r.node) :: fields)
  | j -> j

let pp_record ppf r = Format.pp_print_string ppf (Json.to_string (record_to_json r))

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun r -> output_string oc (Json.to_string (record_to_json r) ^ "\n")) (records t))
