module Engine = Pim_sim.Engine
module Net = Pim_sim.Net
module Fault = Pim_sim.Fault
module Oracle = Pim_sim.Oracle
module Event = Pim_sim.Event
module Trace = Pim_sim.Trace
module Capture = Pim_sim.Capture
module Prng = Pim_util.Prng
module Group = Pim_net.Group
module Topology = Pim_graph.Topology
module Random_graph = Pim_graph.Random_graph
module Mdata = Pim_mcast.Mdata

(* {1 Abstract syntax} *)

(* Node positions accept symbolic names resolved against the program's
   declared roles, so one scenario text works across seeds: [members]
   (the declared member set), [source], [rp] (the primary RP/core). *)
type node_ref = Node of int | Members | Source | Rp

type topology_spec =
  | Line of int
  | Random of { nodes : int; degree : float; seed : int }
  | Derived of { seed : int; member_count : int }
  | Transit_stub of { nodes : int; seed : int }

type mroute_pred =
  | Count_at_least of int
  | Count_at_most of int
  | Count_eq of int
  | Contains of string

type step =
  | Join of node_ref list
  | Leave of node_ref list
  | Send of { from : node_ref; count : int; interval : float }
  | Advance of float
  | Fail_link of { a : node_ref; b : node_ref; down_for : float option }
  | Heal_link of node_ref * node_ref
  | Fail_node of { node : node_ref; down_for : float option }
  | Restart of node_ref
  | Partition of node_ref list
  | Heal
  | Drop_next of node_ref * node_ref
  | Dup_next of node_ref * node_ref
  | Delay_next of { a : node_ref; b : node_ref; by : float }
  | Checkpoint
  | Assert_delivery
  | Assert_no_loops
  | Assert_mroute of { node : node_ref; pred : mroute_pred }
  | Assert_drained
  | Loss of { rate : float; duration : float }
  | Jitter of { amplitude : float; duration : float }
  | Mark of string
  | Assert_reachable
  | At of float * step

type program = {
  name : string;
  topology : topology_spec;
  protocol : Stack.protocol option;
  group : int;
  rp : int list;
  rp_election : bool;
  members_decl : int list;
  source_decl : int option;
  switchover_fallback : bool option;
  steps : step list;
}

(* {1 Printer} *)

let string_of_ref = function
  | Node i -> string_of_int i
  | Members -> "members"
  | Source -> "source"
  | Rp -> "rp"

let refs rs = String.concat " " (List.map string_of_ref rs)

(* Numbers print via %g when that reads back exactly (the short decimals
   scenarios use, no trailing-zero noise), else with the fewest extra
   digits that do, so computed times such as chaos's random fault
   instants round-trip. *)
let num x =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec x in
    if prec >= 17 || Float.equal (float_of_string s) x then s else go (prec + 1)
  in
  go 6

let for_ = Option.fold ~none:"" ~some:(fun d -> " for=" ^ num d)

(* Steps without arguments, by keyword, for the printer and the parser. *)
let nullary =
  [
    ("heal", Heal);
    ("checkpoint", Checkpoint);
    ("assert-delivery", Assert_delivery);
    ("assert-reachable", Assert_reachable);
    ("assert-no-loops", Assert_no_loops);
    ("assert-drained", Assert_drained);
  ]

let rec string_of_step = function
  | Join rs -> Printf.sprintf "join %s" (refs rs)
  | Leave rs -> Printf.sprintf "leave %s" (refs rs)
  | Send { from; count; interval } ->
    Printf.sprintf "send %s count=%d interval=%s" (string_of_ref from) count (num interval)
  | Advance d -> Printf.sprintf "advance %s" (num d)
  | Fail_link { a; b; down_for } ->
    Printf.sprintf "fail-link %s %s%s" (string_of_ref a) (string_of_ref b) (for_ down_for)
  | Heal_link (a, b) -> Printf.sprintf "heal-link %s %s" (string_of_ref a) (string_of_ref b)
  | Fail_node { node; down_for } ->
    Printf.sprintf "fail-node %s%s" (string_of_ref node) (for_ down_for)
  | Restart u -> Printf.sprintf "restart %s" (string_of_ref u)
  | Partition rs -> Printf.sprintf "partition %s" (refs rs)
  | Drop_next (a, b) -> Printf.sprintf "drop-next %s %s" (string_of_ref a) (string_of_ref b)
  | Dup_next (a, b) -> Printf.sprintf "dup-next %s %s" (string_of_ref a) (string_of_ref b)
  | Delay_next { a; b; by } ->
    Printf.sprintf "delay-next %s %s by=%s" (string_of_ref a) (string_of_ref b) (num by)
  | Assert_mroute { node; pred } ->
    Printf.sprintf "assert-mroute %s %s" (string_of_ref node)
      (match pred with
      | Count_at_least n -> Printf.sprintf "count>=%d" n
      | Count_at_most n -> Printf.sprintf "count<=%d" n
      | Count_eq n -> Printf.sprintf "count=%d" n
      | Contains s -> Printf.sprintf "contains=%s" s)
  | Loss { rate; duration } -> Printf.sprintf "loss %s for=%s" (num rate) (num duration)
  | Jitter { amplitude; duration } ->
    Printf.sprintf "jitter %s for=%s" (num amplitude) (num duration)
  | Mark label -> Printf.sprintf "mark %s" label
  | (Heal | Checkpoint | Assert_delivery | Assert_reachable | Assert_no_loops | Assert_drained) as s
    ->
    fst (List.find (fun (_, s') -> s' = s) nullary)
  | At (t, s) -> Printf.sprintf "at %s %s" (num t) (string_of_step s)

(* Every .scn written before the group directive runs on this group. *)
let default_group = 5

let to_string p =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "scenario %s" p.name;
  (match p.topology with
  | Line n -> line "topology line %d" n
  | Random { nodes; degree; seed } ->
    line "topology random nodes=%d degree=%s seed=%d" nodes (num degree) seed
  | Derived { seed; member_count } -> line "topology derived seed=%d members=%d" seed member_count
  | Transit_stub { nodes; seed } -> line "topology transit-stub nodes=%d seed=%d" nodes seed);
  Option.iter (fun pr -> line "protocol %s" (Stack.to_string pr)) p.protocol;
  if p.group <> default_group then line "group %d" p.group;
  if p.rp <> [] then line "rp %s" (String.concat " " (List.map string_of_int p.rp));
  if p.rp_election then line "rp-election on";
  if p.members_decl <> [] then
    line "members %s" (String.concat " " (List.map string_of_int p.members_decl));
  Option.iter (fun s -> line "source %d" s) p.source_decl;
  Option.iter (fun f -> line "config switchover-fallback=%s" (if f then "on" else "off"))
    p.switchover_fallback;
  line "";
  List.iter (fun s -> line "%s" (string_of_step s)) p.steps;
  Buffer.contents b

(* {1 Parser} *)

(* Line-oriented: one directive or step per line, '#' starts a comment,
   tokens split on blanks, options are key=value tokens. *)

let parse_error ln fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" ln s)) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let split_opt tok =
  match String.index_opt tok '=' with
  | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> None

let int_of ln what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> parse_error ln "%s: expected an integer, got %S" what s

let float_of ln what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> parse_error ln "%s: expected a number, got %S" what s

let bool_of ln what s =
  match String.lowercase_ascii s with
  | "on" | "true" | "yes" -> Ok true
  | "off" | "false" | "no" -> Ok false
  | _ -> parse_error ln "%s: expected on|off, got %S" what s

let ref_of ln s =
  match String.lowercase_ascii s with
  | "members" -> Ok Members
  | "source" -> Ok Source
  | "rp" -> Ok Rp
  | _ -> (
    match int_of_string_opt s with
    | Some i -> Ok (Node i)
    | None -> parse_error ln "expected a node number or members|source|rp, got %S" s)

(* One or more nodes, or the first token that is not one. *)
let nodes_of ln what f toks =
  if toks = [] then parse_error ln "%s: expected at least one node" what
  else
    List.fold_left
      (fun acc tok -> let* acc = acc in Result.map (fun v -> v :: acc) (f tok))
      (Ok []) toks
    |> Result.map List.rev

let refs_of ln what = nodes_of ln what (ref_of ln)

let ints_of ln what = nodes_of ln what (int_of ln what)

let pair_of ln a b =
  let* a = ref_of ln a in
  Result.map (fun b -> (a, b)) (ref_of ln b)

(* key=value options with defaults; unknown keys are errors. *)
let options ln ~allowed toks =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match split_opt tok with
      | Some (k, v) when List.exists (String.equal k) allowed -> Ok ((k, v) :: acc)
      | Some (k, _) ->
        parse_error ln "unknown option %S (expected %s)" k (String.concat ", " allowed)
      | None -> parse_error ln "expected key=value options, got %S" tok)
    (Ok []) toks

let opt_int ln opts key ~default =
  match List.assoc_opt key opts with Some v -> int_of ln key v | None -> Ok default

let opt_float ln opts key ~default =
  match List.assoc_opt key opts with Some v -> float_of ln key v | None -> Ok default

let req conv ln opts key =
  match List.assoc_opt key opts with
  | Some v -> conv ln key v
  | None -> parse_error ln "missing required option %s=" key

let parse_mroute_pred ln tok =
  let tail prefix = String.sub tok (String.length prefix) (String.length tok - String.length prefix) in
  let starts prefix =
    String.length tok > String.length prefix && String.equal (String.sub tok 0 (String.length prefix)) prefix
  in
  if starts "count>=" then Result.map (fun n -> Count_at_least n) (int_of ln "count>=" (tail "count>="))
  else if starts "count<=" then Result.map (fun n -> Count_at_most n) (int_of ln "count<=" (tail "count<="))
  else if starts "count=" then Result.map (fun n -> Count_eq n) (int_of ln "count=" (tail "count="))
  else if starts "contains=" then Ok (Contains (tail "contains="))
  else parse_error ln "expected count>=N, count<=N, count=N or contains=STR, got %S" tok

(* The one option of a burst, or of an outage that restores itself: how
   long it lasts. *)
let duration_of ln kw opt =
  let* opts = options ln ~allowed:[ "for" ] [ opt ] in
  let* d = req float_of ln opts "for" in
  if d > 0. then Ok d else parse_error ln "%s: for must be positive" kw

let outage ln kw = function
  | [ opt ] -> Result.map Option.some (duration_of ln kw opt)
  | _ -> Ok None

(* [now] is the cursor the runner will have reached at this step — the
   sum of the advances before it — below which an [at] cannot go. *)
let rec parse_step ~now ln kw args =
  match (kw, args) with
  | "join", toks -> Result.map (fun rs -> Join rs) (refs_of ln kw toks)
  | "leave", toks -> Result.map (fun rs -> Leave rs) (refs_of ln kw toks)
  | "send", from :: opts ->
    let* from = ref_of ln from in
    let* opts = options ln ~allowed:[ "count"; "interval" ] opts in
    let* count = opt_int ln opts "count" ~default:1 in
    let* interval = opt_float ln opts "interval" ~default:0.5 in
    if count < 1 then parse_error ln "send: count must be >= 1"
    else Ok (Send { from; count; interval })
  | "send", [] -> parse_error ln "send: expected a sending node"
  | "advance", [ d ] ->
    let* d = float_of ln "advance" d in
    if d <= 0. then parse_error ln "advance: duration must be positive" else Ok (Advance d)
  | "advance", _ -> parse_error ln "advance: expected one duration"
  | "fail-link", a :: b :: (([] | [ _ ]) as opt) ->
    let* a, b = pair_of ln a b in
    let* down_for = outage ln kw opt in
    Ok (Fail_link { a; b; down_for })
  | "heal-link", [ a; b ] -> Result.map (fun (a, b) -> Heal_link (a, b)) (pair_of ln a b)
  | ("fail-link" | "heal-link"), _ -> parse_error ln "%s: expected two endpoint nodes" kw
  | "fail-node", u :: (([] | [ _ ]) as opt) ->
    let* node = ref_of ln u in
    let* down_for = outage ln kw opt in
    Ok (Fail_node { node; down_for })
  | "restart", [ u ] -> Result.map (fun u -> Restart u) (ref_of ln u)
  | ("fail-node" | "restart"), _ -> parse_error ln "%s: expected one node" kw
  | "partition", toks -> Result.map (fun rs -> Partition rs) (refs_of ln kw toks)
  | "loss", [ r; opt ] ->
    let* rate = float_of ln "loss" r in
    let* duration = duration_of ln kw opt in
    if rate < 0. || rate > 1. then parse_error ln "loss: rate must be within [0, 1]"
    else Ok (Loss { rate; duration })
  | "jitter", [ a; opt ] ->
    let* amplitude = float_of ln "jitter" a in
    let* duration = duration_of ln kw opt in
    if amplitude < 0. then parse_error ln "jitter: amplitude must be >= 0"
    else Ok (Jitter { amplitude; duration })
  | ("loss" | "jitter"), _ -> parse_error ln "%s: expected a value and for=SECONDS" kw
  | "drop-next", [ a; b ] -> Result.map (fun (a, b) -> Drop_next (a, b)) (pair_of ln a b)
  | "dup-next", [ a; b ] -> Result.map (fun (a, b) -> Dup_next (a, b)) (pair_of ln a b)
  | ("drop-next" | "dup-next"), _ -> parse_error ln "%s: expected two endpoint nodes" kw
  | "delay-next", [ a; b; byopt ] ->
    let* a, b = pair_of ln a b in
    let* opts = options ln ~allowed:[ "by" ] [ byopt ] in
    let* by = req float_of ln opts "by" in
    Ok (Delay_next { a; b; by })
  | "delay-next", _ -> parse_error ln "delay-next: expected two endpoints and by=SECONDS"
  | "at", t :: kw' :: args -> (
    let* t = float_of ln "at" t in
    if t < now then parse_error ln "at %s: before the current time %s" (num t) (num now)
    else
      match kw' with
      | "at" | "advance" -> parse_error ln "at: %s cannot be timed" kw'
      | _ -> Result.map (fun s -> At (t, s)) (parse_step ~now ln kw' args))
  | "at", _ -> parse_error ln "at: expected a time and a step"
  | "mark", [ label ] -> Ok (Mark label)
  | "mark", _ -> parse_error ln "mark: expected one label"
  | kw, args when List.mem_assoc kw nullary ->
    if args = [] then Ok (List.assoc kw nullary) else parse_error ln "%s takes no arguments" kw
  | "assert-mroute", [ u; pred ] ->
    let* node = ref_of ln u in
    let* pred = parse_mroute_pred ln pred in
    Ok (Assert_mroute { node; pred })
  | "assert-mroute", _ -> parse_error ln "assert-mroute: expected a node and a predicate"
  | _ -> parse_error ln "unknown step %S" kw

let parse_topology ln args =
  match args with
  | [ "line"; n ] ->
    let* n = int_of ln "line" n in
    if n < 2 then parse_error ln "topology line: need at least 2 nodes" else Ok (Line n)
  | "random" :: opts ->
    let* opts = options ln ~allowed:[ "nodes"; "degree"; "seed" ] opts in
    let* nodes = req int_of ln opts "nodes" in
    let* degree = opt_float ln opts "degree" ~default:4. in
    let* seed = req int_of ln opts "seed" in
    Ok (Random { nodes; degree; seed })
  | "derived" :: opts ->
    let* opts = options ln ~allowed:[ "seed"; "members" ] opts in
    let* seed = req int_of ln opts "seed" in
    let* member_count = opt_int ln opts "members" ~default:6 in
    Ok (Derived { seed; member_count })
  | "transit-stub" :: opts ->
    let* opts = options ln ~allowed:[ "nodes"; "seed" ] opts in
    let* nodes = req int_of ln opts "nodes" in
    let* seed = req int_of ln opts "seed" in
    if nodes < 2 then parse_error ln "topology transit-stub: need at least 2 nodes"
    else Ok (Transit_stub { nodes; seed })
  | _ ->
    parse_error ln
      "expected: topology line N | random nodes= degree= seed= | derived seed= members= | \
       transit-stub nodes= seed="

let parse text =
  let strip_comment l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim (strip_comment l)))
    |> List.filter (fun (_, l) -> not (String.equal l ""))
  in
  let tokens l = String.split_on_char ' ' l |> List.filter (fun t -> not (String.equal t "")) in
  (* The runner's cursor after the steps parsed so far. *)
  let now = ref 0. in
  List.fold_left
    (fun acc (ln, l) ->
      let* p = acc in
      match tokens l with
      | [] -> Ok p
      | kw :: args -> (
        match (kw, args) with
        | "scenario", [ name ] -> Ok { p with name }
        | "scenario", _ -> parse_error ln "scenario: expected one name"
        | "topology", args -> Result.map (fun t -> { p with topology = t }) (parse_topology ln args)
        | "protocol", [ s ] -> (
          match Stack.of_string s with
          | Some pr -> Ok { p with protocol = Some pr }
          | None ->
            parse_error ln "unknown protocol %S (expected %s)" s
              (String.concat ", " (List.map Stack.to_string Stack.all)))
        | "protocol", _ -> parse_error ln "protocol: expected one protocol name"
        | "group", [ g ] ->
          let* group = int_of ln "group" g in
          if group < 0 || group >= 1 lsl 24 then parse_error ln "group: index out of range"
          else Ok { p with group }
        | "group", _ -> parse_error ln "group: expected one group index"
        | "rp", toks -> Result.map (fun rp -> { p with rp }) (ints_of ln "rp" toks)
        | "rp-election", [ v ] ->
          Result.map (fun b -> { p with rp_election = b }) (bool_of ln "rp-election" v)
        | "rp-election", _ -> parse_error ln "rp-election: expected on|off"
        | "members", toks ->
          Result.map (fun members_decl -> { p with members_decl }) (ints_of ln "members" toks)
        | "source", [ s ] ->
          Result.map (fun s -> { p with source_decl = Some s }) (int_of ln "source" s)
        | "source", _ -> parse_error ln "source: expected one node"
        | "config", opts ->
          let* opts = options ln ~allowed:[ "switchover-fallback" ] opts in
          (match List.assoc_opt "switchover-fallback" opts with
          | Some v ->
            Result.map
              (fun b -> { p with switchover_fallback = Some b })
              (bool_of ln "switchover-fallback" v)
          | None -> Ok p)
        | _ ->
          let* s = parse_step ~now:!now ln kw args in
          (match s with Advance d -> now := !now +. d | _ -> ());
          Ok { p with steps = s :: p.steps }))
    (Ok
       {
         name = "unnamed";
         topology = Line 2;
         protocol = None;
         group = default_group;
         rp = [];
         rp_election = false;
         members_decl = [];
         source_decl = None;
         switchover_fallback = None;
         steps = [];
       })
    lines
  |> Result.map (fun p -> { p with steps = List.rev p.steps })

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg ->
    (* [msg] reads "<path>: <reason>"; callers name the path themselves. *)
    let prefix = path ^ ": " in
    let n = String.length prefix in
    Error
      (if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n) else msg)

(* {1 Role resolution} *)

type context = {
  topo : Topology.t;
  nodes : int;
  decl_members : int list;  (** the [members] symbol *)
  source0 : int option;  (** the [source] symbol *)
  rp_nodes : int list;  (** ordered; head is the [rp] symbol *)
}

let context ?topo:given p =
  let declared draw =
    let topo = match given with Some t -> t | None -> draw () in
    {
      topo;
      nodes = Topology.n_nodes topo;
      decl_members = p.members_decl;
      source0 = p.source_decl;
      rp_nodes = p.rp;
    }
  in
  match p.topology with
  | Line n -> declared (fun () -> Pim_graph.Classic.line n)
  | Random { nodes; degree; seed } ->
    declared (fun () -> Random_graph.generate ~prng:(Prng.create seed) ~nodes ~degree ())
  | Transit_stub { nodes; seed } ->
    declared (fun () ->
        let transit, stubs_per_transit, stub_size = Pim_graph.Transit_stub.sizes ~nodes in
        (Pim_graph.Transit_stub.generate ~transit ~stubs_per_transit ~stub_size
           ~prng:(Prng.create seed) ())
          .Pim_graph.Transit_stub.topo)
  | Derived { seed; member_count } ->
    (* The qcheck property's derivation, draw for draw (see
       Scenario.run): the same seed names the same topology, members,
       RP and source — and declared overrides shrink the member set
       without shifting the later draws. *)
    let prng = Prng.create seed in
    let nodes = 12 + Prng.int prng 14 in
    let topo = Random_graph.generate ~prng ~nodes ~degree:(3. +. Prng.float prng 2.) () in
    let derived_members = Random_graph.pick_members ~prng ~nodes ~count:member_count in
    let rp = List.nth derived_members (Prng.int prng member_count) in
    let source = Prng.int prng nodes in
    {
      (declared (fun () -> topo)) with
      decl_members = (if p.members_decl <> [] then p.members_decl else derived_members);
      source0 = Some (Option.value p.source_decl ~default:source);
      rp_nodes = (if p.rp <> [] then p.rp else [ rp ]);
    }

(* {1 Runner} *)

type probe = { seq : int; sent_at : float; received_by : int list }

type mark = { label : string; at : float; control : int }

type outcome = {
  protocol : string;
  nodes : int;
  members : int list;  (** membership when the run ended *)
  source : int option;
  digests : string list;  (** one per [checkpoint], in order *)
  violations : Oracle.violation list;
  deliveries : int;
  duplicates : int;
  residual : int;
  probes : probe list;
  marks : mark list;
  ok : bool;
}

let fail fmt = Printf.ksprintf (fun s -> invalid_arg ("scenario: " ^ s)) fmt

let run ?topo ?trace_file ?capture_file ?metrics_file ?protocol ?switchover_fallback (p : program) =
  let protocol =
    match (protocol, p.protocol) with
    | Some pr, _ | None, Some pr -> pr
    | None, None -> fail "no protocol: pass one or add a protocol directive"
  in
  let switchover_fallback =
    match (switchover_fallback, p.switchover_fallback) with
    | Some f, _ | None, Some f -> f
    | None, None -> true
  in
  let ctx = context ?topo p in
  let eng = Engine.create () in
  let net = Net.create eng ctx.topo in
  (* The control-traffic tap costs a callback per traversal: only a
     program that marks pays for it. *)
  let rec marks = function Mark _ -> true | At (_, s) -> marks s | _ -> false in
  let metrics = if List.exists marks p.steps then Some (Metrics.attach net) else None in
  let capture = Option.map (fun _ -> Capture.attach net) capture_file in
  let trace = Option.map (fun _ -> Trace.create eng) trace_file in
  let group = Group.of_index p.group in
  let stack =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, ctx.rp_nodes) ] ~rp_election:p.rp_election
            ~cbsr_forbidden:(Option.to_list ctx.source0 @ ctx.decl_members)
            ~config:{ Stack.fast with sm = { Pim_core.Config.fast with switchover_fallback } }
            ?trace ~groups:[ group ] ~net protocol))
  in
  let oracle =
    (* Churn-tolerant bound while the scenario perturbs; [checkpoint]
       drops to the protocol's strict bound. *)
    Oracle.create ~max_copies:(stack.Stack.max_copies + 2) net ~probe_id:(fun pkt ->
        match pkt.Pim_net.Packet.payload with Mdata.Data i -> Some i.Mdata.seq | _ -> None)
  in
  let faults = Fault.install ~restart:stack.Stack.restart net [] in
  (* Delivery tally: (seq, member) -> copies, and each seq's send time. *)
  let tally : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let sent_at_of : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let copies seq m = Option.value (Hashtbl.find_opt tally (seq, m)) ~default:0 in
  (* Current members, newest join first. *)
  let current = ref [] in
  let wired = Hashtbl.create 16 in
  let members () = List.sort Int.compare !current in
  let deref1 what = function
    | Node i when i >= 0 && i < ctx.nodes -> i
    | Node i -> fail "%s: node %d outside topology (%d nodes)" what i ctx.nodes
    | Members -> (
      match ctx.decl_members with
      | [ m ] -> m
      | ms -> fail "%s: 'members' names %d nodes, need exactly one" what (List.length ms))
    | Source -> (
      match ctx.source0 with
      | Some s -> s
      | None -> fail "%s: no source declared (add a source directive)" what)
    | Rp -> (
      match ctx.rp_nodes with
      | r :: _ -> r
      | [] -> fail "%s: no rp declared (add an rp directive)" what)
  in
  let deref_many what rs =
    List.concat_map
      (fun r -> match r with Members -> ctx.decl_members | r -> [ deref1 what r ])
      rs
    |> List.sort_uniq Int.compare
  in
  let link_between what a b =
    let a = deref1 what a and b = deref1 what b in
    let has u (l : Topology.link) = Array.exists (Int.equal u) l.Topology.ends in
    match Array.find_opt (fun l -> has a l && has b l) (Topology.links ctx.topo) with
    | Some l -> (a, b, l.Topology.id)
    | None -> fail "%s: no link between %d and %d" what a b
  in
  let wire m =
    if not (Hashtbl.mem wired m) then begin
      Hashtbl.replace wired m ();
      stack.Stack.on_data m (fun pkt ->
          match pkt.Pim_net.Packet.payload with
          | Mdata.Data { Mdata.seq; sent_at } ->
            Oracle.note_received oracle ~node:m ~probe:seq;
            Hashtbl.replace sent_at_of seq sent_at;
            Hashtbl.replace tally (seq, m) (1 + copies seq m)
          | _ -> ())
    end
  in
  let now = ref 0. in
  (* Latest instant any scheduled send (plus a delivery bound) can still
     matter — the final drain runs to here, not to quiescence, because
     protocol refresh timers never stop. *)
  let horizon = ref 0. in
  let next_seq = ref 0 in
  let sender = ref None in
  (* The seqs of the last send window. *)
  let last_window = ref None in
  let digests = ref [] in
  let marks = ref [] in
  let emit event = Option.iter (fun tr -> Trace.emit tr ~node:(-1) event) trace in
  let inject action fault =
    emit (Event.Fault_injected { action });
    Fault.apply faults fault
  in
  (* [at] is when a [send] starts: the cursor, or an [at] step's time. *)
  let rec exec ~at step =
    match step with
    | At (t, s) -> (
      if t < !now then fail "at %s: before the current time %s" (num t) (num !now);
      (* A step timed past the last advance must still run. *)
      horizon := Float.max !horizon t;
      match s with
      | Advance _ | At _ -> fail "at: %s cannot be timed" (string_of_step s)
      | Send _ -> exec ~at:t s
      | s -> ignore (Engine.schedule_at eng t (fun () -> exec ~at:t s)))
    | Join rs ->
      List.iter
        (fun m ->
          if not (List.mem m !current) then begin
            wire m;
            current := m :: !current;
            stack.Stack.join m
          end)
        (deref_many "join" rs)
    | Leave rs ->
      List.iter
        (fun m ->
          if List.mem m !current then begin
            current := List.filter (fun m' -> m' <> m) !current;
            stack.Stack.leave m
          end)
        (deref_many "leave" rs)
    | Send { from; count; interval } ->
      let u = deref1 "send" from in
      (* Probes are identified by the per-source data sequence number, so
         a scenario keeps to one sending node. *)
      (match !sender with
      | Some prev when prev <> u -> fail "send: one sending node per scenario (%d then %d)" prev u
      | _ -> sender := Some u);
      last_window := Some (List.init count (fun i -> !next_seq + i));
      next_seq := !next_seq + count;
      horizon := Float.max !horizon (at +. (interval *. float_of_int count) +. 10.);
      for i = 0 to count - 1 do
        ignore
          (Engine.schedule_at eng
             (at +. (interval *. float_of_int i))
             (fun () -> stack.Stack.send_from u))
      done
    | Advance d ->
      now := !now +. d;
      Engine.run ~until:!now eng
    | Fail_link { a; b; down_for } ->
      let a, b, lid = link_between "fail-link" a b in
      inject
        (Printf.sprintf "fail-link %d %d (link %d)%s" a b lid (for_ down_for))
        (match down_for with None -> Fault.Link_down lid | Some d -> Fault.Link_flap (lid, d))
    | Heal_link (a, b) ->
      let a, b, lid = link_between "heal-link" a b in
      inject (Printf.sprintf "heal-link %d %d (link %d)" a b lid) (Fault.Link_up lid)
    | Fail_node { node; down_for } -> (
      let u = deref1 "fail-node" node in
      let action = Printf.sprintf "fail-node %d%s" u (for_ down_for) in
      match down_for with
      | None ->
        emit (Event.Fault_injected { action });
        Net.set_node_up net u false
      | Some d -> inject action (Fault.Node_crash (u, d)))
    | Restart u ->
      let u = deref1 "restart" u in
      emit (Event.Fault_injected { action = Printf.sprintf "restart %d" u });
      Net.set_node_up net u true;
      stack.Stack.restart u
    | Partition rs ->
      let us = deref_many "partition" rs in
      inject
        (Printf.sprintf "partition {%s}" (String.concat "," (List.map string_of_int us)))
        (Fault.Partition us)
    | Heal -> inject "heal" Fault.Heal
    | Loss { rate; duration } -> inject (string_of_step step) (Fault.Loss_burst (rate, duration))
    | Jitter { amplitude; duration } ->
      inject (string_of_step step) (Fault.Jitter_burst (amplitude, duration))
    | Drop_next (a, b) ->
      let _, _, lid = link_between "drop-next" a b in
      inject (Printf.sprintf "drop-next (link %d)" lid) (Fault.Drop_next lid)
    | Dup_next (a, b) ->
      let _, _, lid = link_between "dup-next" a b in
      inject (Printf.sprintf "dup-next (link %d)" lid) (Fault.Duplicate_next lid)
    | Delay_next { a; b; by } ->
      let _, _, lid = link_between "delay-next" a b in
      inject (Printf.sprintf "delay-next by=%g (link %d)" by lid) (Fault.Delay_next (lid, by))
    | Checkpoint ->
      let d = Stack.digest stack ~net ~members:(members ()) in
      digests := d :: !digests;
      emit (Event.Checkpoint_digest { digest = d });
      Oracle.checkpoint oracle ~max_copies:stack.Stack.max_copies
    | Mark label ->
      let control = Metrics.control_traversals (Option.get metrics) in
      marks := { label; at = Engine.now eng; control } :: !marks
    | Assert_delivery | Assert_reachable ->
      (* Exactly one copy to each member, or at least one. *)
      let exactly = match step with Assert_delivery -> true | _ -> false in
      let probes =
        match !last_window with
        | Some seqs -> seqs
        | None -> fail "%s: no send step before it" (string_of_step step)
      in
      List.iter
        (fun seq ->
          List.iter
            (fun m ->
              let c = copies seq m in
              if exactly && c <> 1 then
                Oracle.record oracle ~invariant:"delivery"
                  (Printf.sprintf "member %d received %d copies of probe %d (want exactly 1)" m
                     c seq)
              else if c = 0 then
                Oracle.record oracle ~invariant:"reachability"
                  (Printf.sprintf "probe %d not delivered to member %d" seq m))
            (if exactly then members () else List.rev !current))
        probes;
      Option.iter
        (fun source -> Oracle.check_blackhole oracle ~source ~members:(members ()) ~probes)
        !sender
    | Assert_no_loops ->
      (* On-wire loop freedom is checked continuously by the oracle tap;
         this step additionally runs the protocol's structural state
         checks at a point the scenario declares quiet. *)
      List.iter
        (fun (inv, f) -> Oracle.run_check oracle ~invariant:inv f)
        stack.Stack.state_checks
    | Assert_mroute { node; pred } ->
      let u = deref1 "assert-mroute" node in
      let lines = stack.Stack.mroute u in
      let n = List.length lines in
      let bad detail =
        Oracle.record oracle ~invariant:"mroute"
          (Printf.sprintf "node %d: %s (state: %s)" u detail
             (if lines = [] then "<empty>" else String.concat " | " lines))
      in
      (match pred with
      | Count_at_least k -> if n < k then bad (Printf.sprintf "%d entries, want >= %d" n k)
      | Count_at_most k -> if n > k then bad (Printf.sprintf "%d entries, want <= %d" n k)
      | Count_eq k -> if n <> k then bad (Printf.sprintf "%d entries, want exactly %d" n k)
      | Contains s ->
        let n = String.length s in
        let rec contains_at l i =
          i + n <= String.length l && (String.equal (String.sub l i n) s || contains_at l (i + 1))
        in
        if not (List.exists (fun l -> contains_at l 0) lines) then
          bad (Printf.sprintf "no entry contains %S" s))
    | Assert_drained ->
      let residual = stack.Stack.entries () in
      if residual > stack.Stack.residual_floor then
        Oracle.record oracle ~invariant:"orphaned-state"
          (Printf.sprintf "%d state entries remain (floor %d)" residual
             stack.Stack.residual_floor)
  in
  List.iter (fun step -> exec ~at:!now step) p.steps;
  (* Drain whatever the last step scheduled (sends, in-flight frames). *)
  Engine.run ~until:(Float.max !now !horizon) eng;
  let residual = stack.Stack.entries () in
  Option.iter (fun path -> Capture.save path (Capture.entries (Option.get capture))) capture_file;
  Option.iter (fun path -> Trace.save path (Option.get trace)) trace_file;
  Option.iter
    (fun path -> Pim_util.Json.to_file path (Pim_util.Metrics.to_json (Net.metrics net)))
    metrics_file;
  let ever_joined = Hashtbl.fold (fun m () acc -> m :: acc) wired [] |> List.sort Int.compare in
  let probes =
    Hashtbl.fold
      (fun seq sent_at acc ->
        { seq; sent_at; received_by = List.filter (fun m -> copies seq m > 0) ever_joined } :: acc)
      sent_at_of []
    |> List.sort (fun a b -> Int.compare a.seq b.seq)
  in
  let deliveries, duplicates = Hashtbl.fold (fun _ c (d, u) -> (d + c, u + c - 1)) tally (0, 0) in
  let violations = Oracle.violations oracle in
  {
    protocol = Stack.to_string stack.Stack.protocol;
    nodes = ctx.nodes;
    members = members ();
    source = ctx.source0;
    digests = List.rev !digests;
    violations;
    deliveries;
    duplicates;
    residual;
    probes;
    marks = List.rev !marks;
    ok = violations = [];
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%s: %d nodes, members {%s}, %d deliveries (%d dup), residual %d@." o.protocol
    o.nodes
    (String.concat "," (List.map string_of_int o.members))
    o.deliveries o.duplicates o.residual;
  List.iteri (fun i d -> Format.fprintf ppf "checkpoint %d: %s@." i d) o.digests;
  if o.violations = [] then Format.fprintf ppf "ok: no violations@."
  else begin
    Format.fprintf ppf "%d violation(s):@." (List.length o.violations);
    List.iter (fun v -> Format.fprintf ppf "  %a@." Oracle.pp_violation v) o.violations
  end
