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

let group = Group.of_index 5

(* {1 Abstract syntax} *)

(* Node positions accept symbolic names resolved against the program's
   declared roles, so one scenario text works across seeds: [members]
   (the declared member set), [source], [rp] (the primary RP/core). *)
type node_ref = Node of int | Members | Source | Rp

type topology_spec =
  | Line of int
  | Random of { nodes : int; degree : float; seed : int }
  | Derived of { seed : int; member_count : int }

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
  | Fail_link of node_ref * node_ref
  | Heal_link of node_ref * node_ref
  | Fail_node of node_ref
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

type program = {
  name : string;
  topology : topology_spec;
  protocol : Stack.protocol option;
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

(* Times print via %g: round-trip exact for the short decimals scenarios
   use, no trailing-zero noise. *)
let string_of_step = function
  | Join rs -> Printf.sprintf "join %s" (refs rs)
  | Leave rs -> Printf.sprintf "leave %s" (refs rs)
  | Send { from; count; interval } ->
    Printf.sprintf "send %s count=%d interval=%g" (string_of_ref from) count interval
  | Advance d -> Printf.sprintf "advance %g" d
  | Fail_link (a, b) -> Printf.sprintf "fail-link %s %s" (string_of_ref a) (string_of_ref b)
  | Heal_link (a, b) -> Printf.sprintf "heal-link %s %s" (string_of_ref a) (string_of_ref b)
  | Fail_node u -> Printf.sprintf "fail-node %s" (string_of_ref u)
  | Restart u -> Printf.sprintf "restart %s" (string_of_ref u)
  | Partition rs -> Printf.sprintf "partition %s" (refs rs)
  | Heal -> "heal"
  | Drop_next (a, b) -> Printf.sprintf "drop-next %s %s" (string_of_ref a) (string_of_ref b)
  | Dup_next (a, b) -> Printf.sprintf "dup-next %s %s" (string_of_ref a) (string_of_ref b)
  | Delay_next { a; b; by } ->
    Printf.sprintf "delay-next %s %s by=%g" (string_of_ref a) (string_of_ref b) by
  | Checkpoint -> "checkpoint"
  | Assert_delivery -> "assert-delivery"
  | Assert_no_loops -> "assert-no-loops"
  | Assert_mroute { node; pred } ->
    Printf.sprintf "assert-mroute %s %s" (string_of_ref node)
      (match pred with
      | Count_at_least n -> Printf.sprintf "count>=%d" n
      | Count_at_most n -> Printf.sprintf "count<=%d" n
      | Count_eq n -> Printf.sprintf "count=%d" n
      | Contains s -> Printf.sprintf "contains=%s" s)
  | Assert_drained -> "assert-drained"

let to_string p =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "scenario %s" p.name;
  (match p.topology with
  | Line n -> line "topology line %d" n
  | Random { nodes; degree; seed } ->
    line "topology random nodes=%d degree=%g seed=%d" nodes degree seed
  | Derived { seed; member_count } -> line "topology derived seed=%d members=%d" seed member_count);
  Option.iter (fun pr -> line "protocol %s" (Stack.to_string pr)) p.protocol;
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

let refs_of ln toks =
  if toks = [] then parse_error ln "expected at least one node"
  else
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* r = ref_of ln tok in
        Ok (r :: acc))
      (Ok []) toks
    |> Result.map List.rev

let ints_of ln what toks =
  if toks = [] then parse_error ln "%s: expected at least one node" what
  else
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* i = int_of ln what tok in
        Ok (i :: acc))
      (Ok []) toks
    |> Result.map List.rev

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

let req ln opts key =
  match List.assoc_opt key opts with
  | Some v -> Ok v
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

let parse_step ln kw args =
  match (kw, args) with
  | "join", toks -> Result.map (fun rs -> Join rs) (refs_of ln toks)
  | "leave", toks -> Result.map (fun rs -> Leave rs) (refs_of ln toks)
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
  | "fail-link", [ a; b ] ->
    let* a = ref_of ln a in
    let* b = ref_of ln b in
    Ok (Fail_link (a, b))
  | "heal-link", [ a; b ] ->
    let* a = ref_of ln a in
    let* b = ref_of ln b in
    Ok (Heal_link (a, b))
  | ("fail-link" | "heal-link"), _ -> parse_error ln "%s: expected two endpoint nodes" kw
  | "fail-node", [ u ] -> Result.map (fun u -> Fail_node u) (ref_of ln u)
  | "restart", [ u ] -> Result.map (fun u -> Restart u) (ref_of ln u)
  | ("fail-node" | "restart"), _ -> parse_error ln "%s: expected one node" kw
  | "partition", toks -> Result.map (fun rs -> Partition rs) (refs_of ln toks)
  | "heal", [] -> Ok Heal
  | "heal", _ -> parse_error ln "heal takes no arguments"
  | "drop-next", [ a; b ] ->
    let* a = ref_of ln a in
    let* b = ref_of ln b in
    Ok (Drop_next (a, b))
  | "dup-next", [ a; b ] ->
    let* a = ref_of ln a in
    let* b = ref_of ln b in
    Ok (Dup_next (a, b))
  | ("drop-next" | "dup-next"), _ -> parse_error ln "%s: expected two endpoint nodes" kw
  | "delay-next", [ a; b; byopt ] ->
    let* a = ref_of ln a in
    let* b = ref_of ln b in
    let* opts = options ln ~allowed:[ "by" ] [ byopt ] in
    let* v = req ln opts "by" in
    let* by = float_of ln "by" v in
    Ok (Delay_next { a; b; by })
  | "delay-next", _ -> parse_error ln "delay-next: expected two endpoints and by=SECONDS"
  | "checkpoint", [] -> Ok Checkpoint
  | "assert-delivery", [] -> Ok Assert_delivery
  | "assert-no-loops", [] -> Ok Assert_no_loops
  | "assert-drained", [] -> Ok Assert_drained
  | ("checkpoint" | "assert-delivery" | "assert-no-loops" | "assert-drained"), _ ->
    parse_error ln "%s takes no arguments" kw
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
    let* v = req ln opts "nodes" in
    let* nodes = int_of ln "nodes" v in
    let* degree = opt_float ln opts "degree" ~default:4. in
    let* v = req ln opts "seed" in
    let* seed = int_of ln "seed" v in
    Ok (Random { nodes; degree; seed })
  | "derived" :: opts ->
    let* opts = options ln ~allowed:[ "seed"; "members" ] opts in
    let* v = req ln opts "seed" in
    let* seed = int_of ln "seed" v in
    let* member_count = opt_int ln opts "members" ~default:6 in
    Ok (Derived { seed; member_count })
  | _ -> parse_error ln "expected: topology line N | random nodes= degree= seed= | derived seed= members="

let parse text =
  let strip_comment l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim (strip_comment l)))
    |> List.filter (fun (_, l) -> not (String.equal l ""))
  in
  let tokens l = String.split_on_char ' ' l |> List.filter (fun t -> not (String.equal t "")) in
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
          let* p =
            match List.assoc_opt "switchover-fallback" opts with
            | Some v ->
              Result.map
                (fun b -> { p with switchover_fallback = Some b })
                (bool_of ln "switchover-fallback" v)
            | None -> Ok p
          in
          Ok p
        | _ -> Result.map (fun s -> { p with steps = s :: p.steps }) (parse_step ln kw args)))
    (Ok
       {
         name = "unnamed";
         topology = Line 2;
         protocol = None;
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

let context p =
  match p.topology with
  | Line n ->
    {
      topo = Pim_graph.Classic.line n;
      nodes = n;
      decl_members = p.members_decl;
      source0 = p.source_decl;
      rp_nodes = p.rp;
    }
  | Random { nodes; degree; seed } ->
    let prng = Prng.create seed in
    {
      topo = Random_graph.generate ~prng ~nodes ~degree ();
      nodes;
      decl_members = p.members_decl;
      source0 = p.source_decl;
      rp_nodes = p.rp;
    }
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
      topo;
      nodes;
      decl_members = (if p.members_decl <> [] then p.members_decl else derived_members);
      source0 = Some (Option.value p.source_decl ~default:source);
      rp_nodes = (if p.rp <> [] then p.rp else [ rp ]);
    }

(* {1 Runner} *)

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
  ok : bool;
}

let fail fmt = Printf.ksprintf (fun s -> invalid_arg ("scenario: " ^ s)) fmt

let run ?trace_file ?capture_file ?metrics_file ?protocol ?switchover_fallback (p : program) =
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
  let ctx = context p in
  let eng = Engine.create () in
  let net = Net.create eng ctx.topo in
  let capture = Option.map (fun _ -> Capture.attach net) capture_file in
  let trace = Trace.create eng in
  let stack =
    snd
      (List.hd
         (Stack.create_many ~placement:[ (group, ctx.rp_nodes) ] ~rp_election:p.rp_election
            ~config:{ Stack.fast with sm = { Pim_core.Config.fast with switchover_fallback } }
            ~trace ~groups:[ group ] ~net protocol))
  in
  let oracle =
    (* Churn-tolerant bound while the scenario perturbs; [checkpoint]
       drops to the protocol's strict bound (same discipline as the
       chaos harness). *)
    Oracle.create ~max_copies:(stack.Stack.max_copies + 2) net ~probe_id:(fun pkt ->
        match pkt.Pim_net.Packet.payload with Mdata.Data i -> Some i.Mdata.seq | _ -> None)
  in
  let faults = Fault.install ~restart:stack.Stack.restart net [] in
  (* Delivery tally: seq -> member -> copies. *)
  let tally : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let deliveries = ref 0 in
  let duplicates = ref 0 in
  let current = Hashtbl.create 16 in
  let wired = Hashtbl.create 16 in
  let members () = Hashtbl.fold (fun m () acc -> m :: acc) current [] |> List.sort Int.compare in
  let deref1 what r =
    match r with
    | Node i ->
      if i < 0 || i >= ctx.nodes then fail "%s: node %d outside topology (%d nodes)" what i ctx.nodes;
      i
    | Members -> (
      match ctx.decl_members with
      | [ m ] -> m
      | _ -> fail "%s: 'members' names %d nodes, need exactly one" what (List.length ctx.decl_members))
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
    let found =
      Array.to_list (Topology.links ctx.topo)
      |> List.find_opt (fun (l : Topology.link) ->
             Array.exists (Int.equal a) l.Topology.ends && Array.exists (Int.equal b) l.Topology.ends)
    in
    match found with
    | Some l -> l.Topology.id
    | None -> fail "%s: no link between %d and %d" what a b
  in
  let wire m =
    if not (Hashtbl.mem wired m) then begin
      Hashtbl.replace wired m ();
      stack.Stack.on_data m (fun pkt ->
          match pkt.Pim_net.Packet.payload with
          | Mdata.Data { Mdata.seq; _ } ->
            Oracle.note_received oracle ~node:m ~probe:seq;
            let per_member =
              match Hashtbl.find_opt tally seq with
              | Some tbl -> tbl
              | None ->
                let tbl = Hashtbl.create 8 in
                Hashtbl.replace tally seq tbl;
                tbl
            in
            let n = 1 + Option.value (Hashtbl.find_opt per_member m) ~default:0 in
            Hashtbl.replace per_member m n;
            incr deliveries;
            if n > 1 then incr duplicates
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
  let last_window = ref None in
  let digests = ref [] in
  let injected action = Trace.emit trace ~node:(-1) (Event.Fault_injected { action }) in
  let copies seq m =
    match Hashtbl.find_opt tally seq with
    | None -> 0
    | Some tbl -> Option.value (Hashtbl.find_opt tbl m) ~default:0
  in
  let exec step =
    match step with
    | Join rs ->
      List.iter
        (fun m ->
          if not (Hashtbl.mem current m) then begin
            wire m;
            Hashtbl.replace current m ();
            stack.Stack.join m
          end)
        (deref_many "join" rs)
    | Leave rs ->
      List.iter
        (fun m ->
          if Hashtbl.mem current m then begin
            Hashtbl.remove current m;
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
      last_window := Some (!next_seq, count);
      next_seq := !next_seq + count;
      horizon := Float.max !horizon (!now +. (interval *. float_of_int count) +. 10.);
      for i = 0 to count - 1 do
        ignore
          (Engine.schedule_at eng
             (!now +. (interval *. float_of_int i))
             (fun () -> stack.Stack.send_from u))
      done
    | Advance d ->
      now := !now +. d;
      Engine.run ~until:!now eng
    | Fail_link (a, b) ->
      let lid = link_between "fail-link" a b in
      injected (Printf.sprintf "fail-link %d %d (link %d)" (deref1 "fail-link" a)
                  (deref1 "fail-link" b) lid);
      Fault.apply faults (Fault.Link_down lid)
    | Heal_link (a, b) ->
      let lid = link_between "heal-link" a b in
      injected (Printf.sprintf "heal-link %d %d (link %d)" (deref1 "heal-link" a)
                  (deref1 "heal-link" b) lid);
      Fault.apply faults (Fault.Link_up lid)
    | Fail_node u ->
      let u = deref1 "fail-node" u in
      injected (Printf.sprintf "fail-node %d" u);
      Net.set_node_up net u false
    | Restart u ->
      let u = deref1 "restart" u in
      injected (Printf.sprintf "restart %d" u);
      Net.set_node_up net u true;
      stack.Stack.restart u
    | Partition rs ->
      let us = deref_many "partition" rs in
      injected
        (Printf.sprintf "partition {%s}" (String.concat "," (List.map string_of_int us)));
      Fault.apply faults (Fault.Partition us)
    | Heal ->
      injected "heal";
      Fault.apply faults Fault.Heal
    | Drop_next (a, b) ->
      let lid = link_between "drop-next" a b in
      injected (Printf.sprintf "drop-next (link %d)" lid);
      Fault.apply faults (Fault.Drop_next lid)
    | Dup_next (a, b) ->
      let lid = link_between "dup-next" a b in
      injected (Printf.sprintf "dup-next (link %d)" lid);
      Fault.apply faults (Fault.Duplicate_next lid)
    | Delay_next { a; b; by } ->
      let lid = link_between "delay-next" a b in
      injected (Printf.sprintf "delay-next by=%g (link %d)" by lid);
      Fault.apply faults (Fault.Delay_next (lid, by))
    | Checkpoint ->
      let d = Stack.digest stack ~net ~members:(members ()) in
      digests := d :: !digests;
      Trace.emit trace ~node:(-1) (Event.Checkpoint_digest { digest = d });
      Oracle.checkpoint oracle ~max_copies:stack.Stack.max_copies
    | Assert_delivery -> (
      match !last_window with
      | None -> fail "assert-delivery: no send step before it"
      | Some (first, count) ->
        let window = List.init count (fun i -> first + i) in
        let ms = members () in
        List.iter
          (fun seq ->
            List.iter
              (fun m ->
                let c = copies seq m in
                if c <> 1 then
                  Oracle.record oracle ~invariant:"delivery"
                    (Printf.sprintf "member %d received %d copies of probe %d (want exactly 1)"
                       m c seq))
              ms)
          window;
        match !sender with
        | Some source -> Oracle.check_blackhole oracle ~source ~members:ms ~probes:window
        | None -> ())
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
        let contains_sub hay needle =
          let nh = String.length hay and nn = String.length needle in
          nn = 0
          || (nh >= nn
             && List.exists
                  (fun i -> String.equal (String.sub hay i nn) needle)
                  (List.init (nh - nn + 1) Fun.id))
        in
        if not (List.exists (fun l -> contains_sub l s) lines) then
          bad (Printf.sprintf "no entry contains %S" s))
    | Assert_drained ->
      let residual = stack.Stack.entries () in
      if residual > stack.Stack.residual_floor then
        Oracle.record oracle ~invariant:"orphaned-state"
          (Printf.sprintf "%d state entries remain (floor %d)" residual
             stack.Stack.residual_floor)
  in
  List.iter exec p.steps;
  (* Drain whatever the last step scheduled (sends, in-flight frames). *)
  Engine.run ~until:(Float.max !now !horizon) eng;
  let residual = stack.Stack.entries () in
  Option.iter (fun path -> Capture.save path (Capture.entries (Option.get capture))) capture_file;
  Option.iter (fun path -> Trace.save path trace) trace_file;
  Option.iter
    (fun path -> Pim_util.Json.to_file path (Pim_util.Metrics.to_json (Net.metrics net)))
    metrics_file;
  let violations = Oracle.violations oracle in
  {
    protocol = Stack.to_string stack.Stack.protocol;
    nodes = ctx.nodes;
    members = members ();
    source = ctx.source0;
    digests = List.rev !digests;
    violations;
    deliveries = !deliveries;
    duplicates = !duplicates;
    residual;
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
