(* The baseline is the ratchet: it records, per (rule, file), how many
   legacy findings are tolerated.  A lint run fails only when some
   (rule, file) pair reports MORE findings than its baselined count, so
   new violations fail the build while grandfathered ones do not come
   back.  When a file improves, [--update-baseline] shrinks the
   recorded count; it can never be grown by hand-editing review.

   Lines carry a tier tag ("TIER RULE FILE COUNT") so one baseline file
   serves both analysis tiers; the tag is derived from the rule and
   checked on load. *)

type key = string * string  (* rule id, path with '/' separators *)

type t = (key, int) Hashtbl.t

let empty () : t = Hashtbl.create 8

(* Paths are stored and compared with '/' separators so the baseline is
   portable across platforms and invocation styles. *)
let norm_path p = String.map (fun c -> if c = '\\' then '/' else c) p

let line_re line =
  match String.split_on_char ' ' (String.trim line) with
  | [ tier; rule; path; count ] -> (
    match (Finding.tier_of_id tier, Finding.rule_of_id rule, int_of_string_opt count) with
    | Some t, Some r, Some n when n > 0 && Finding.tier_of_rule r = t ->
      Some ((rule, norm_path path), n)
    | _ -> None)
  | _ -> None

let load path =
  let t = empty () in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            if String.length (String.trim line) > 0 && (String.trim line).[0] <> '#' then
              match line_re line with
              | Some (k, n) -> Hashtbl.replace t k n
              | None -> failwith (Printf.sprintf "%s: malformed baseline line %S" path line)
          done
        with End_of_file -> ())
  end;
  t

let allowance t ~rule ~file =
  Option.value (Hashtbl.find_opt t (Finding.rule_id rule, norm_path file)) ~default:0

let counts findings =
  let tbl : t = Hashtbl.create 16 in
  List.iter
    (fun (f : Finding.t) ->
      let k = (Finding.rule_id f.rule, norm_path f.file) in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    findings;
  tbl

(* [--update-baseline] runs one tier at a time; rows belonging to the
   other tier must survive the rewrite or updating the untyped baseline
   would silently un-ratchet the typed one (and vice versa). *)
let merge_tier ~tier ~existing fresh =
  let out : t = Hashtbl.create 16 in
  (* pimlint: allow D1, T1 — rebuilding into a Hashtbl; order-independent *)
  Hashtbl.iter
    (fun (rule, file) n ->
      match Finding.rule_of_id rule with
      | Some r when Finding.tier_of_rule r <> tier -> Hashtbl.replace out (rule, file) n
      | _ -> ())
    existing;
  (* pimlint: allow D1, T1 — rebuilding into a Hashtbl; order-independent *)
  Hashtbl.iter (fun k n -> Hashtbl.replace out k n) fresh;
  out

let tier_of_rule_id rule =
  match Finding.rule_of_id rule with
  | Some r -> Finding.tier_id (Finding.tier_of_rule r)
  | None -> "untyped"

let header =
  "# pimlint baseline: TIER RULE FILE COUNT per line.  A run fails when a\n\
   # (rule, file) pair exceeds its count here, or falls below it (a stale\n\
   # row); regenerate with\n\
   # `pimlint [--typed] --update-baseline` after legitimate ratchet-downs\n\
   # (each tier rewrites only its own rows).\n"

let save t path =
  let rows =
    Hashtbl.fold (fun (rule, file) n acc -> (rule, file, n) :: acc) t []
    |> List.sort (fun (r1, f1, _) (r2, f2, _) ->
           match String.compare f1 f2 with 0 -> String.compare r1 r2 | c -> c)
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      List.iter
        (fun (rule, file, n) ->
          Printf.fprintf oc "%s %s %s %d\n" (tier_of_rule_id rule) rule file n)
        rows)

(* A row of [tier] that allows more findings than its (rule, file) has
   now is slack: the file improved (or is gone), and the spare allowance
   would let it regress unseen.  Only rows for files [in_scope] (the
   paths this run linted) are judged. *)
let stale t ~tier ~in_scope findings =
  let now = counts findings in
  Hashtbl.fold
    (fun (rule, file) n acc ->
      match Finding.rule_of_id rule with
      | Some r when Finding.tier_of_rule r = tier && in_scope file ->
        let m = Option.value (Hashtbl.find_opt now (rule, file)) ~default:0 in
        if n <= m then acc
        else
          {
            Finding.rule = r;
            file;
            line = 0;
            col = 0;
            message =
              Printf.sprintf
                "stale baseline row; run --update-baseline (allows %d, %d finding(s) now)" n m;
          }
          :: acc
      | _ -> acc)
    t []
  |> List.sort Finding.compare

(* Split [findings] into (overflow, grandfathered): for each (rule, file)
   the first [allowance] findings (in canonical order) are grandfathered,
   the rest overflow and must fail the build. *)
let apply t findings =
  let sorted = List.sort Finding.compare findings in
  let used : (key, int) Hashtbl.t = Hashtbl.create 16 in
  List.partition
    (fun (f : Finding.t) ->
      let k = (Finding.rule_id f.rule, norm_path f.file) in
      let seen = Option.value (Hashtbl.find_opt used k) ~default:0 in
      Hashtbl.replace used k (seen + 1);
      seen >= allowance t ~rule:f.rule ~file:f.file)
    sorted
