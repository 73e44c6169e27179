(* Driver: expand paths to .ml files, run one analysis tier over them,
   drop suppressed findings, flag stale suppressions (S1), apply the
   baseline ratchet and report (text or JSON).  The linter itself must
   be deterministic: files are visited in sorted order and findings are
   reported in canonical order.

   Tiers: the untyped tier parses sources and runs {!Rules} on the
   Parsetree; the typed tier loads [.cmt] files via {!Cmt_load} and runs
   {!Typed_rules} on the Typedtree.  One invocation runs exactly one
   tier; the baseline file is shared (rows are tier-tagged, and
   [--update-baseline] rewrites only the active tier's rows). *)

type tier_mode = Untyped_tier | Typed_tier

type options = {
  baseline_path : string option;
  update_baseline : bool;
  warn_rules : Finding.rule list;  (* demoted: reported, never fatal *)
  quiet : bool;
  tier : tier_mode;
  build_root : string option;  (* typed tier: where the .cmt files live *)
  json : bool;  (* machine-readable output, schema "pimlint/1" *)
}

let default_options =
  {
    baseline_path = None;
    update_baseline = false;
    warn_rules = [];
    quiet = false;
    tier = Untyped_tier;
    build_root = None;
    json = false;
  }

let finding_tier = function Untyped_tier -> Finding.Untyped | Typed_tier -> Finding.Typed

let is_ml_file path = Filename.check_suffix path ".ml"

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path
    |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "_build" || name = ".git" then acc
           else walk acc (Filename.concat path name))
         acc
  else if is_ml_file path then path :: acc
  else acc

let expand paths =
  List.fold_left walk [] paths |> List.sort_uniq String.compare

exception Parse_failure of string * string  (* file, message *)

let parse_file path =
  try Pparse.parse_implementation ~tool_name:"pimlint" path
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    raise (Parse_failure (path, msg))

(* Raw (pre-suppression) findings per file, for the active tier.  The
   typed tier checks the whole batch at once because L3 is cross-file. *)
let raw_findings ~options files =
  match options.tier with
  | Untyped_tier ->
    List.concat_map (fun file -> Rules.check ~file (parse_file file)) files
  | Typed_tier ->
    files
    |> List.map (fun file -> (file, Cmt_load.load ?build_root:options.build_root file))
    |> Typed_rules.check_batch

(* A suppression comment is stale when none of the rules it names (of
   the active tier) fired on the lines it covers — the code it excused
   has been fixed or moved, and the comment now silently masks future
   regressions.  Rules of the other tier are invisible to this run and
   are never judged here. *)
let stale_suppressions ~tier file raw =
  Suppress.origins_file file
  |> List.filter_map (fun (line, rules) ->
         let relevant = List.filter (fun r -> Finding.tier_of_rule r = tier) rules in
         if relevant = [] then None
         else if
           List.exists
             (fun (f : Finding.t) ->
               List.mem f.rule relevant && (f.line = line || f.line = line + 1))
             raw
         then None
         else
           Some
             {
               Finding.rule = Finding.S1;
               file;
               line;
               col = 0;
               message =
                 Printf.sprintf
                   "stale suppression: no %s finding on this or the next line; remove \
                    the allow comment (or re-scope it)"
                   (String.concat "/" (List.map Finding.rule_id relevant));
             })

(* Findings for one batch of files: tier rules minus suppressed, plus
   stale-suppression warnings. *)
let lint_files ~options files =
  let raw = raw_findings ~options files in
  let tier = finding_tier options.tier in
  List.concat_map
    (fun file ->
      let raw_here = List.filter (fun (f : Finding.t) -> f.file = file) raw in
      let suppressions = Suppress.scan_file file in
      let kept =
        List.filter
          (fun (f : Finding.t) -> not (Suppress.allows suppressions ~line:f.line f.rule))
          raw_here
      in
      kept @ stale_suppressions ~tier file raw_here)
    files
  |> List.sort Finding.compare

let lint_file path = lint_files ~options:default_options [ path ]

let lint_paths ?(options = default_options) paths = lint_files ~options (expand paths)

let severity opts (f : Finding.t) =
  if List.mem f.rule opts.warn_rules then Finding.Warning else Finding.default_severity f.rule

(* {1 JSON output}  Schema "pimlint/1": stable field set, findings in
   canonical order, hand-rolled escaping (no external dependency). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_finding opts (f : Finding.t) =
  Printf.sprintf
    {|{"rule":"%s","tier":"%s","severity":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
    (Finding.rule_id f.rule)
    (Finding.tier_id (Finding.tier_of_rule f.rule))
    (match severity opts f with Finding.Error -> "error" | Finding.Warning -> "warning")
    (json_escape f.file) f.line f.col (json_escape f.message)

let print_json ppf opts ~errors ~warnings ~grandfathered ~exit_code =
  let findings = List.sort Finding.compare (errors @ warnings) in
  Format.fprintf ppf
    {|{"schema":"pimlint/1","tier":"%s","errors":%d,"warnings":%d,"baselined":%d,"exit":%d,"findings":[%s]}@.|}
    (Finding.tier_id (finding_tier opts.tier))
    (List.length errors) (List.length warnings) (List.length grandfathered) exit_code
    (String.concat "," (List.map (json_finding opts) findings))

(* {1 Entry point} *)

(* [file] is one of [paths] or lies below one of them. *)
let under paths file =
  List.exists
    (fun p ->
      let p = if String.ends_with ~suffix:"/" p then String.sub p 0 (String.length p - 1) else p in
      String.equal file p || String.starts_with ~prefix:(p ^ "/") file)
    paths

(* Returns the process exit code: 0 clean (or fully baselined), 1 when
   non-baselined error findings or stale baseline rows exist, 2 on
   parse/IO/cmt failure. *)
let run ?(options = default_options) ~paths ppf =
  match lint_paths ~options paths with
  | exception Parse_failure (file, msg) ->
    Format.fprintf ppf "pimlint: cannot parse %s:@.%s@." file msg;
    2
  | exception Cmt_load.No_cmt (file, msg) ->
    Format.fprintf ppf "pimlint: %s: %s@." file msg;
    2
  | exception Sys_error msg ->
    Format.fprintf ppf "pimlint: %s@." msg;
    2
  | findings ->
    if options.update_baseline then begin
      match options.baseline_path with
      | None ->
        Format.fprintf ppf "pimlint: --update-baseline requires --baseline PATH@.";
        2
      | Some p ->
        (* S1 is a meta-rule about comments, never ratcheted; and the
           other tier's rows must survive a one-tier rewrite. *)
        let ratchetable =
          List.filter (fun (f : Finding.t) -> f.rule <> Finding.S1) findings
        in
        let merged =
          Baseline.merge_tier ~tier:(finding_tier options.tier)
            ~existing:(Baseline.load p) (Baseline.counts ratchetable)
        in
        Baseline.save merged p;
        Format.fprintf ppf "pimlint: baseline of %d %s finding(s) written to %s@."
          (List.length ratchetable)
          (Finding.tier_id (finding_tier options.tier))
          p;
        0
    end
    else begin
      let baseline =
        match options.baseline_path with
        | Some p -> Baseline.load p
        | None -> Baseline.empty ()
      in
      let overflow, grandfathered = Baseline.apply baseline findings in
      let errors, warnings =
        List.partition (fun f -> severity options f = Finding.Error) overflow
      in
      (* A stale row fails whatever its rule's severity. *)
      let errors =
        errors
        @ Baseline.stale baseline ~tier:(finding_tier options.tier) ~in_scope:(under paths)
            findings
      in
      let exit_code = if errors = [] then 0 else 1 in
      if options.json then
        print_json ppf options ~errors ~warnings ~grandfathered ~exit_code
      else begin
        if not options.quiet then begin
          List.iter (fun f -> Format.fprintf ppf "warning: %a@." Finding.pp f) warnings;
          List.iter (fun f -> Format.fprintf ppf "error: %a@." Finding.pp f) errors;
          if grandfathered <> [] then
            Format.fprintf ppf
              "pimlint: %d baselined legacy finding(s) tolerated — ratchet down when \
               possible@."
              (List.length grandfathered)
        end;
        if errors = [] then begin
          if not options.quiet then
            Format.fprintf ppf "pimlint: OK (%d file(s), %d warning(s), %d baselined)@."
              (List.length (expand paths))
              (List.length warnings) (List.length grandfathered)
        end
        else Format.fprintf ppf "pimlint: %d error(s)@." (List.length errors)
      end;
      exit_code
    end
