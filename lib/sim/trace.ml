type record = {
  time : float;
  node : int;
  tag : string;
  detail : string;
  event : Event.t option;
}

type t = {
  eng : Engine.t;
  mutable enabled : bool;
  mutable entries : record list;  (* reversed *)
}

let create ?(enabled = true) eng = { eng; enabled; entries = [] }

let enable t b = t.enabled <- b

let active = function Some t -> t.enabled | None -> false

let log t ~node ~tag detail =
  if t.enabled then
    t.entries <- { time = Engine.now t.eng; node; tag; detail; event = None } :: t.entries

let logf t ~node ~tag fmt =
  Format.kasprintf (fun s -> log t ~node ~tag s) fmt

let emit t ~node ev =
  if t.enabled then
    t.entries <-
      {
        time = Engine.now t.eng;
        node;
        tag = Event.tag ev;
        detail = Format.asprintf "%a" Event.pp ev;
        event = Some ev;
      }
      :: t.entries

let records t = List.rev t.entries

let events t =
  List.fold_left
    (fun acc r -> match r.event with Some ev -> (r.time, r.node, ev) :: acc | None -> acc)
    [] t.entries

let count t ~tag =
  List.fold_left (fun acc r -> if String.equal r.tag tag then acc + 1 else acc) 0 t.entries

let find t ~tag = List.filter (fun r -> String.equal r.tag tag) (records t)

let clear t = t.entries <- []

let pp_record ppf r =
  Format.fprintf ppf "%8.3f node=%-3d %-10s %s" r.time r.node r.tag r.detail

let dump ppf t =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_record r) (records t)

let record_to_json r =
  match r.event with
  | Some ev -> (
    match Event.to_json ev with
    | Pim_util.Json.Obj fields ->
      Pim_util.Json.Obj (("t", Pim_util.Json.Float r.time) :: ("node", Pim_util.Json.Int r.node) :: fields)
    | j -> j)
  | None ->
    Pim_util.Json.Obj
      [
        ("t", Pim_util.Json.Float r.time);
        ("node", Pim_util.Json.Int r.node);
        ("type", Pim_util.Json.Str "log");
        ("tag", Pim_util.Json.Str r.tag);
        ("detail", Pim_util.Json.Str r.detail);
      ]

let dump_jsonl oc t =
  List.iter
    (fun r -> output_string oc (Pim_util.Json.to_string (record_to_json r) ^ "\n"))
    (records t)
