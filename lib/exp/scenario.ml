type spec = {
  seed : int;
  member_count : int;
  members_override : int list option;
  packets : int;
  check_from : int;
  switchover_fallback : bool;
}

let default_spec ~seed ~member_count =
  {
    seed;
    member_count;
    members_override = None;
    packets = 30;
    check_from = 22;
    switchover_fallback = true;
  }

type outcome = {
  nodes : int;
  members : int list;
  rp : int;
  source : int;
  wrong : (int * int * int) list;
  residual_entries : int;
  dup_suppressed : int;
  ok : bool;
}

(* The derived roles, the receivers, and the program that replays them.
   The receivers are named node by node, so an empty override joins no
   one; the override replaces the derived members but not the RP or
   the source, which [Dsl.context] drew before it applies. *)
let plan spec =
  if spec.member_count < 1 then invalid_arg "Scenario.run: member_count must be >= 1";
  if spec.packets < 0 then
    invalid_arg (Printf.sprintf "Scenario.run: packets must be >= 0 (got %d)" spec.packets);
  let base =
    {
      Dsl.empty with
      name = Printf.sprintf "trace-record-%d" spec.seed;
      topology = Dsl.Derived { seed = spec.seed; member_count = spec.member_count };
      protocol = Some Stack.Pim_sm;
      group = 1;
      switchover_fallback = Some spec.switchover_fallback;
    }
  in
  let ctx = Dsl.context base in
  let members = Option.value spec.members_override ~default:ctx.Dsl.decl_members in
  let receivers step = if members = [] then [] else [ step (List.map (fun m -> Dsl.Node m) members) ] in
  (* One stream from t=10 every 0.5 s, sent as two windows so the last
     one, which [assert-delivery] checks, is exactly seqs
     [check_from .. packets-1]. *)
  let send count = Dsl.Send { from = Dsl.Source; count; interval = 0.5; host = 1 } in
  let early = min spec.packets spec.check_from in
  let checked = spec.packets - early in
  let steps =
    receivers (fun ms -> Dsl.Join ms)
    @ [ Dsl.Advance 10. ]
    @ (if early > 0 then [ send early ] else [])
    @ (if checked > 0 then [ Dsl.At (10. +. (0.5 *. float_of_int early), send checked) ] else [])
    @ [ Dsl.Advance 50. ]
    @ (if checked > 0 then [ Dsl.Assert_delivery ] else [])
    @ receivers (fun ms -> Dsl.Leave ms)
    @ [ Dsl.Advance 160.; Dsl.Assert_drained ]
  in
  (ctx, members, { base with steps })

let program spec =
  let _, _, p = plan spec in
  p

let run ?capture_file ?trace_file ?metrics_file spec =
  let ctx, members, p = plan spec in
  let o = Dsl.run ~ctx ?capture_file ?trace_file ?metrics_file p in
  let copies seq m =
    match List.find_opt (fun (pr : Dsl.probe) -> pr.Dsl.seq = seq) o.Dsl.probes with
    | Some pr -> Option.value (List.assoc_opt m pr.Dsl.copies) ~default:0
    | None -> 0
  in
  let wrong =
    List.init (max 0 (spec.packets - spec.check_from)) (fun i -> spec.check_from + i)
    |> List.concat_map (fun seq ->
           List.filter_map
             (fun m -> match copies seq m with 1 -> None | c -> Some (m, seq, c))
             members)
  in
  {
    nodes = ctx.Dsl.nodes;
    members;
    rp = List.hd ctx.Dsl.rp_nodes;
    source = Option.get ctx.Dsl.source0;
    wrong;
    residual_entries = o.Dsl.residual;
    dup_suppressed = Pim_sim.Counters.total o.Dsl.counters Data_dup_suppressed;
    ok = wrong = [] && o.Dsl.residual = 0;
  }

let fails spec = not (run spec).ok

(* Greedy one-at-a-time delta debugging: cheap (the scenario space is
   small) and deterministic.  Members are dropped while the failure
   persists, then the packet count is lowered the same way.  Dropping a
   member only shrinks the receiver set — the RP and source roles were
   drawn before the override applies and stay fixed. *)
let shrink spec =
  if not (fails spec) then spec
  else begin
    let current = ref spec in
    let members () =
      let _, ms, _ = plan !current in
      ms
    in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun m ->
          let ms = members () in
          if List.length ms > 1 then begin
            let candidate =
              { !current with members_override = Some (List.filter (fun x -> x <> m) ms) }
            in
            if fails candidate then begin
              current := candidate;
              progress := true
            end
          end)
        (members ())
    done;
    let continue = ref true in
    while !continue do
      let c = !current in
      if c.packets > 1 && fails { c with packets = c.packets - 1 } then
        current := { c with packets = c.packets - 1 }
      else continue := false
    done;
    !current
  end
