module Topology = Pim_graph.Topology

(* One search action: a named, self-contained step sequence (faults heal
   themselves; membership changes stand alone).  The DSL is the action
   alphabet — a counterexample is just a scenario program, printable and
   replayable like any hand-written one. *)
type action = {
  label : string;
  steps : Dsl.step list;
}

type found = {
  program : Dsl.program;  (** the full offending program *)
  shrunk : Dsl.program;  (** after delta-debugging the perturbations *)
  outcome : Dsl.outcome;  (** of the shrunk program *)
  depth : int;
}

type report = {
  protocol : string;
  runs : int;
  unique_states : int;
  pruned : int;  (** candidates not expanded: digest already seen *)
  found : found option;
}

let node n = Dsl.Node n

(* A node's access link (its lowest-numbered interface) with a concrete
   endpoint pair for fail-link/heal-link. *)
let access_link topo u =
  let ifaces = Topology.ifaces topo u in
  if Array.length ifaces = 0 then None
  else begin
    let _, lid = Array.fold_left (fun (i, l) (i', l') -> if l' < l then (i', l') else (i, l)) ifaces.(0) ifaces in
    match Topology.others_on_link topo lid u with
    | v :: _ -> Some (u, v)
    | [] -> None
  end

(* The perturbation alphabet for a base scenario: composite faults
   (outage + heal) aimed at the roles that matter — the source's
   first-hop link, each probed member's last-hop link, the primary
   RP/core — plus single membership changes and one message-level drop.
   [outage] keeps faults short so depth-3 sequences stay well under the
   settle budget. *)
let alphabet ~(ctx : Dsl.context) ?(outage = 4.) () =
  let members = List.sort_uniq Int.compare ctx.Dsl.decl_members in
  let targets = List.filteri (fun i _ -> i < 3) members in
  let faults = ref [] in
  let add_fault label steps = faults := { label; steps } :: !faults in
  let link_fault tag (a, b) =
    add_fault
      (Printf.sprintf "%s %d-%d" tag a b)
      Dsl.[ Fail_link { a = node a; b = node b; down_for = None }; Advance outage;
            Heal_link (node a, node b) ]
  in
  Option.iter
    (fun s -> Option.iter (link_fault "fhr-link") (access_link ctx.Dsl.topo s))
    ctx.Dsl.source0;
  List.iter (fun m -> Option.iter (link_fault "lhr-link") (access_link ctx.Dsl.topo m)) targets;
  (match ctx.Dsl.rp_nodes with
  | rp :: _ when (not (List.mem rp members)) && not (Option.equal Int.equal (Some rp) ctx.Dsl.source0)
    ->
    add_fault
      (Printf.sprintf "rp-crash %d" rp)
      [ Dsl.Fail_node { node = node rp; down_for = None }; Dsl.Advance outage; Dsl.Restart (node rp) ]
  | _ -> ());
  (match targets with
  | m :: _ ->
    add_fault
      (Printf.sprintf "isolate %d" m)
      [ Dsl.Partition [ node m ]; Dsl.Advance outage; Dsl.Heal ]
  | [] -> ());
  (* No message-level Drop_next here: a one-shot drop that survives the
     settle wait eats a probe datagram, and unreliable-datagram loss is
     not a protocol bug.  Hand-written scenarios aim those faults at
     control traffic explicitly. *)
  let memberships = ref [] in
  let add_membership label steps = memberships := { label; steps } :: !memberships in
  List.iter
    (fun m -> add_membership (Printf.sprintf "leave %d" m) [ Dsl.Leave [ node m ] ])
    targets;
  (* One fresh receiver: the first node holding no declared role. *)
  (let roles = ctx.Dsl.rp_nodes @ members @ Option.to_list ctx.Dsl.source0 in
   match List.find_opt (fun u -> not (List.mem u roles)) (List.init ctx.Dsl.nodes Fun.id) with
   | Some x -> add_membership (Printf.sprintf "join %d" x) [ Dsl.Join [ node x ] ]
   | None -> ());
  List.rev !faults @ List.rev !memberships

(* Candidate program: base, then the perturbation sequence, then a
   settle wait (only when something was perturbed — the unperturbed
   candidate asserts the base exactly as written, preserving any
   deliberate convergence-race timing the base encodes), an unasserted
   warm burst, a checkpoint (digest + strict oracle epoch), a probe
   window and the invariant assertions. *)
let assemble ~(base : Dsl.program) ~(ctx : Dsl.context) ~protocol ~probes ~interval
    perturbations =
  (* Node count upper-bounds the tree depth CBT's hop-by-hop teardown
     may have to walk; the other protocols ignore it. *)
  let settle =
    Stack.settle_hint ~rp_election:base.Dsl.rp_election ~hops:ctx.Dsl.nodes protocol
  in
  let probe_bound = 10. in
  (* The warm burst re-drives the data path before anything is asserted:
     after the settle — or a base that ends quiet — packets into an
     idle sparse-mode tree hit staggered soft-state decay (some routers
     still hold (S,G) state whose downstream branches expired), and the
     stream only fully heals once the stale entries age out and the
     refresh cycle rebuilds them — the protocol's own reconvergence
     bound, so the warm window spans one settle_hint of traffic (tree
     depth doesn't govern data-path re-drive, so the default hop bound
     is fine).  Losses in the warm window are soft-state decay, not a
     protocol bug; the asserted window continues the stream seamlessly,
     so a real forwarding defect still has to show up. *)
  let warm =
    int_of_float
      (Float.ceil (Stack.settle_hint ~rp_election:base.Dsl.rp_election protocol /. interval))
  in
  let tail =
    (if perturbations = [] then [] else [ Dsl.Advance settle ])
    @ [
      Dsl.Send { from = Dsl.Source; count = warm; interval; host = 1 };
      Dsl.Advance (float_of_int warm *. interval);
      Dsl.Checkpoint;
      Dsl.Send { from = Dsl.Source; count = probes; interval; host = 1 };
      Dsl.Advance ((float_of_int probes *. interval) +. probe_bound);
      Dsl.Assert_delivery;
      Dsl.Assert_no_loops;
    ]
  in
  {
    base with
    Dsl.name =
      (if perturbations = [] then base.Dsl.name ^ "-probe"
       else
         Printf.sprintf "%s+%s" base.Dsl.name
           (String.concat "+"
              (List.map
                 (fun a ->
                   String.map (function ' ' -> '_' | c -> c) a.label)
                 perturbations)));
    Dsl.steps = base.Dsl.steps @ List.concat_map (fun a -> a.steps) perturbations @ tail;
  }

(* Greedy delta-debugging over the perturbation list (the probe tail is
   fixed), then over the probe count — same discipline as
   Scenario.shrink. *)
let shrink ~base ~ctx ~protocol ~interval perturbations probes =
  let fails ps pr =
    not (Dsl.run ~ctx (assemble ~base ~ctx ~protocol ~probes:pr ~interval ps)).Dsl.ok
  in
  let current = ref perturbations in
  let progress = ref true in
  while !progress do
    progress := false;
    let n = List.length !current in
    let i = ref 0 in
    while !i < n && not !progress do
      let candidate = List.filteri (fun j _ -> j <> !i) !current in
      if List.length candidate < n && fails candidate probes then begin
        current := candidate;
        progress := true
      end;
      incr i
    done
  done;
  let best_probes = ref probes in
  let continue = ref true in
  while !continue && !best_probes > 1 do
    if fails !current (!best_probes - 1) then decr best_probes else continue := false
  done;
  (!current, !best_probes)

let run ~(base : Dsl.program) ~protocol ?(depth = 3) ?(budget = 500) ?(probes = 6)
    ?(interval = 0.5) ?switchover_fallback ?(log = fun _ -> ()) () =
  let switchover_fallback =
    match (switchover_fallback, base.Dsl.switchover_fallback) with
    | Some f, _ | None, Some f -> f
    | None, None -> true
  in
  (* Embed the protocol and the resolved fallback in every candidate, so
     an emitted [.scn] reproduces standalone, without the CLI flags that
     found it. *)
  let base =
    { base with Dsl.protocol = Some protocol; switchover_fallback = Some switchover_fallback }
  in
  let at_least name bound v =
    if v < bound then
      invalid_arg (Printf.sprintf "Explore.run: %s must be >= %d (got %d)" name bound v)
  in
  at_least "depth" 0 depth;
  at_least "budget" 1 budget;
  at_least "probes" 1 probes;
  let ctx = Dsl.context base in
  if ctx.Dsl.source0 = None then invalid_arg "Explore.run: base scenario declares no source";
  let actions = alphabet ~ctx () in
  let candidate ps = assemble ~base ~ctx ~protocol ~probes ~interval ps in
  let seen = Hashtbl.create 64 in
  let runs = ref 0 in
  let pruned = ref 0 in
  let found = ref None in
  (* The queue stores perturbation sequences newest-first; materialize
     with one reverse per candidate instead of appending per child. *)
  let queue = Queue.create () in
  Queue.push (0, []) queue;
  while (not (Queue.is_empty queue)) && !found = None && !runs < budget do
    let d, rev_ps = Queue.pop queue in
    let ps = List.rev rev_ps in
    let prog = candidate ps in
    incr runs;
    let outcome = Dsl.run ~ctx prog in
    if not outcome.Dsl.ok then begin
      log
        (Printf.sprintf "violation at depth %d after %d runs: %s" d !runs
           (match outcome.Dsl.violations with
           | v :: _ -> v.Pim_sim.Oracle.invariant
           | [] -> "?"));
      let kept, best_probes = shrink ~base ~ctx ~protocol ~interval ps probes in
      let shrunk =
        {
          (assemble ~base ~ctx ~protocol ~probes:best_probes ~interval kept) with
          Dsl.name = base.Dsl.name ^ "-min";
        }
      in
      let outcome_min = Dsl.run ~ctx shrunk in
      found := Some { program = prog; shrunk; outcome = outcome_min; depth = d }
    end
    else begin
      let digest = match List.rev outcome.Dsl.digests with dg :: _ -> Some dg | [] -> None in
      let fresh =
        match digest with
        | Some dg ->
          if Hashtbl.mem seen dg then begin
            incr pruned;
            false
          end
          else begin
            Hashtbl.replace seen dg ();
            true
          end
        | None -> true
      in
      if fresh && d < depth then
        List.iter (fun a -> Queue.push (d + 1, a :: rev_ps) queue) actions
    end
  done;
  {
    protocol = Stack.to_string protocol;
    runs = !runs;
    unique_states = Hashtbl.length seen;
    pruned = !pruned;
    found = !found;
  }

let pp_report ppf r =
  Format.fprintf ppf "%s: %d runs, %d unique states, %d pruned by digest@." r.protocol r.runs
    r.unique_states r.pruned;
  match r.found with
  | None -> Format.fprintf ppf "no violation found@."
  | Some f ->
    Format.fprintf ppf "violation at depth %d (program %s):@." f.depth f.program.Dsl.name;
    Format.fprintf ppf "shrunk to %s:@." f.shrunk.Dsl.name;
    Dsl.pp_outcome ppf f.outcome
