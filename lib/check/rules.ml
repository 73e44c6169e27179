(* Syntactic rule engine over the untyped Parsetree.  No type
   information is available, so every rule is a lexical/structural
   heuristic tuned to this codebase's idioms; RULES.md documents the
   deliberate blind spots.  Traversal is a single DFS (Ast_iterator
   based) with two pieces of context threaded through mutable state:

   - [sanctioned]: fold applications whose immediate consumer is a
     canonical sort ([List.sort f (Hashtbl.fold ...)] or
     [Hashtbl.fold ... |> List.sort f]) are pre-marked by the parent
     visit and not reported by D1.
   - [loop_depth]: bumped inside for/while bodies and inside function
     literals passed to iteration combinators (.iter/.fold/...), the
     contexts where a list append (H4) goes quadratic.

   H6 and H7 are scoped by path: [deploy_scoped] and [runner_scoped]
   are fixed per file. *)

open Parsetree

type state = {
  file : string;
  mutable findings : Finding.t list;
  sanctioned : (int, unit) Hashtbl.t;  (* loc_start.pos_cnum of blessed folds *)
  mutable loop_depth : int;
  mutable shadowed_compare : bool;  (* file defines its own [compare] *)
  deploy_scoped : bool;  (* an experiment other than Stack: H6 applies *)
  runner_scoped : bool;  (* a lib/exp file other than Dsl: H7 applies *)
}

let path_of_longident lid =
  let rec flat acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> flat (s :: acc) l
    | Longident.Lapply _ -> acc
  in
  String.concat "." (flat [] lid)

let last_two path =
  match List.rev (String.split_on_char '.' path) with
  | last :: prev :: _ -> Some (prev, last)
  | [ last ] -> Some ("", last)
  | [] -> None

let head_path e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (path_of_longident txt) | _ -> None

(* The head identifier of a possibly partial application:
   [List.sort Int.compare] and [List.sort] both resolve to "List.sort". *)
let rec app_head e =
  match e.pexp_desc with
  | Pexp_ident _ -> head_path e
  | Pexp_apply (f, _) -> app_head f
  | _ -> None

let is_hashtbl_member member path =
  match last_two path with
  | Some (prev, last) -> prev = "Hashtbl" && last = member
  | None -> false

let is_sort_head path =
  match last_two path with
  | Some (_, ("sort" | "sort_uniq" | "stable_sort" | "fast_sort")) -> true
  | _ -> false

let is_hashtbl_fold_app e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
    match head_path f with Some p -> is_hashtbl_member "fold" p | None -> false)
  | _ -> false

let loc_key e = e.pexp_loc.Location.loc_start.Lexing.pos_cnum

let report st rule loc message =
  let pos = loc.Location.loc_start in
  st.findings <-
    {
      Finding.rule;
      file = st.file;
      line = pos.Lexing.pos_lnum;
      col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      message;
    }
    :: st.findings

(* Does this expression (a fold body) build a list? — the signature of a
   traversal whose element order escapes into the result. *)
let builds_list body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> found := true
          | Pexp_apply (f, _) -> (
            match head_path f with
            | Some ("@" | "List.append" | "List.rev_append" | "List.cons") -> found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body;
  !found

let rec lambda_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> Some (lambda_innermost body)
  | Pexp_function _ -> Some e
  | _ -> None

and lambda_innermost e =
  match e.pexp_desc with Pexp_fun (_, _, _, body) -> lambda_innermost body | _ -> e

let is_float_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

(* An iteration combinator whose function-literal argument is a loop
   body for H4 purposes. *)
let is_loop_combinator path =
  match last_two path with
  | Some (_, ("iter" | "iteri" | "iter2" | "fold" | "fold_left" | "fold_right")) -> true
  | _ -> false

(* [Vec.get v i x ...], also spelled [(Vec.get v i) x]: the number of
   arguments an application headed by a path ending in [Vec.get]
   receives, counted through parenthesised partial applications (the
   compiler merges those into one application too).  [None] for any
   other head. *)
let rec vec_get_arity e n =
  match e.pexp_desc with
  | Pexp_ident _ -> (
    match head_path e with
    | Some p when p = "Vec.get" || String.ends_with ~suffix:".Vec.get" p -> Some n
    | _ -> None)
  | Pexp_apply (f, args) -> vec_get_arity f (n + List.length args)
  | _ -> None

let randomness_paths = [ "Unix.time"; "Unix.gettimeofday"; "Sys.time" ]

let is_randomness path =
  List.mem path randomness_paths
  ||
  match String.split_on_char '.' path with
  | "Random" :: _ :: _ -> true
  | "Stdlib" :: "Random" :: _ :: _ -> true
  | _ -> false

(* H6 and H7 scope: a file directly under a [lib/exp] directory, except
   the deployment adapter (H6) or the runner (H7) itself. *)
let is_experiment_file ~except file =
  let dir = Filename.dirname file in
  Filename.basename dir = "exp"
  && Filename.basename (Filename.dirname dir) = "lib"
  && Filename.basename file <> except

let is_deployment_create path =
  match last_two path with
  | Some ("Deployment", ("create" | "create_static")) | Some ("Bsr", "deploy") -> true
  | _ -> false

let is_engine_create path =
  match last_two path with Some ("Engine", "create") -> true | _ -> false

let check_ident st loc path =
  if st.deploy_scoped && is_deployment_create path then
    report st Finding.H6 loc
      (Printf.sprintf
         "%s in an experiment: deploy through Stack.create_many (or say which PIM-SM-only \
          state the experiment reads)"
         path);
  if st.runner_scoped && is_engine_create path then
    report st Finding.H7 loc
      (Printf.sprintf "%s in an experiment: run it as a Dsl.program through Dsl.run" path);
  if is_randomness path then
    report st Finding.D2 loc
      (Printf.sprintf "%s: use the seeded Pim_util.Prng instead of ambient randomness" path);
  if (path = "compare" && not st.shadowed_compare) || path = "Stdlib.compare" then
    report st Finding.H1 loc
      "polymorphic compare: use the type's own compare (Int.compare, Addr.compare, ...)"

(* [e.f <- e'.f @ xs] (or [xs @ e'.f]) where both sides name the same
   field: the classic quadratic subscriber-list append. *)
let is_self_append_set fld rhs =
  match rhs.pexp_desc with
  | Pexp_apply (f, args) -> (
    match head_path f with
    | Some ("@" | "List.append") ->
      List.exists
        (fun (_, a) ->
          match a.pexp_desc with
          | Pexp_field (_, { txt; _ }) -> (
            match (last_two (path_of_longident txt), last_two (path_of_longident fld)) with
            | Some (_, f1), Some (_, f2) -> f1 = f2
            | _ -> false)
          | _ -> false)
        args
    | _ -> false)
  | _ -> false

let ident_name e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> Some s
  | _ -> None

let mentions_get e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, _) when head_path f = Some "Array.get" -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

let mentions_deref_of name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, [ (_, arg) ]) when head_path f = Some "!" ->
            if ident_name arg = Some name then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

let make_iterator st =
  let default = Ast_iterator.default_iterator in
  let with_loop self e =
    st.loop_depth <- st.loop_depth + 1;
    self.Ast_iterator.expr self e;
    st.loop_depth <- st.loop_depth - 1
  in
  let expr self e =
    (* Pre-mark folds whose immediate consumer canonically sorts them. *)
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match head_path f with
      | Some "|>" -> (
        match args with
        | [ (_, lhs); (_, rhs) ] ->
          if is_hashtbl_fold_app lhs then (
            match app_head rhs with
            | Some p when is_sort_head p -> Hashtbl.replace st.sanctioned (loc_key lhs) ()
            | _ -> ())
        | _ -> ())
      | Some p when is_sort_head p ->
        List.iter
          (fun (_, a) ->
            if is_hashtbl_fold_app a then Hashtbl.replace st.sanctioned (loc_key a) ())
          args
      | _ -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident st e.pexp_loc (path_of_longident txt)
    | Pexp_apply (f, args) ->
      (match head_path f with
      | Some p when is_hashtbl_member "iter" p ->
        report st Finding.D1 e.pexp_loc
          "Hashtbl.iter visits entries in nondeterministic order; iterate a sorted \
           snapshot instead"
      | Some p
        when is_hashtbl_member "to_seq" p || is_hashtbl_member "to_seq_keys" p
             || is_hashtbl_member "to_seq_values" p ->
        report st Finding.D1 e.pexp_loc
          "Hashtbl.to_seq* yields entries in nondeterministic order; sort the result"
      | Some p when is_hashtbl_member "fold" p ->
        if not (Hashtbl.mem st.sanctioned (loc_key e)) then (
          match args with
          | (_, fn) :: _ -> (
            match lambda_body fn with
            | Some body when builds_list body ->
              report st Finding.D1 e.pexp_loc
                "Hashtbl.fold accumulates a list in nondeterministic order; pipe the \
                 result into a canonical List.sort"
            | _ -> ())
          | [] -> ())
      | Some "randomize" | None | Some _ -> ());
      (match head_path f with
      | Some ("=" | "<>") ->
        if List.exists (fun (_, a) -> is_float_const a) args then
          report st Finding.H2 e.pexp_loc
            "float equality: compare against an epsilon or use Float.compare"
      | Some ("==" | "!=") ->
        report st Finding.H2 e.pexp_loc
          "physical equality on possibly-boxed values; use structural equality or a \
           typed equal"
      | Some ("@" | "List.append") ->
        if st.loop_depth > 0 then
          report st Finding.H4 e.pexp_loc
            "list append inside a loop is quadratic; accumulate with :: / Vec.push and \
             sort or reverse once"
      | Some "Array.set" -> (
        (* [a.(i) <- ... @ a.(i) ...]: the parser desugars [.()] to
           Array.get/Array.set, so catch the array-slot self-append too. *)
        match List.rev args with
        | (_, rhs) :: _ -> (
          match rhs.pexp_desc with
          | Pexp_apply (op, _)
            when (head_path op = Some "@" || head_path op = Some "List.append")
                 && mentions_get rhs ->
            report st Finding.H4 e.pexp_loc
              "self-append to an array slot is quadratic across registrations; use \
               Pim_util.Vec"
          | _ -> ())
        | [] -> ())
      | Some ":=" -> (
        match args with
        | [ (_, lhs); (_, rhs) ] -> (
          match (ident_name lhs, rhs.pexp_desc) with
          | Some r, Pexp_apply (op, _)
            when (head_path op = Some "@" || head_path op = Some "List.append")
                 && mentions_deref_of r rhs ->
            report st Finding.H4 e.pexp_loc
              "r := !r @ ... grows quadratically; accumulate with :: or Vec.push"
          | _ -> ())
        | _ -> ())
      | _ -> ());
      (match vec_get_arity f (List.length args) with
      | Some n when n > 2 ->
        report st Finding.H5 e.pexp_loc
          "Vec.get applied to the element's own arguments: under -opaque the call goes \
           through caml_applyN and builds a partial closure per call; bind the element \
           first (let f = Vec.get v i in f x)"
      | _ -> ());
      (* Recurse manually so function literals handed to iteration
         combinators count as loop bodies for H4. *)
      let loopy =
        match head_path f with Some p -> is_loop_combinator p | None -> false
      in
      self.Ast_iterator.expr self f;
      List.iter
        (fun (_, a) ->
          match a.pexp_desc with
          | (Pexp_fun _ | Pexp_function _) when loopy -> with_loop self a
          | _ -> self.Ast_iterator.expr self a)
        args
    | Pexp_setfield (lhs, fld, rhs) ->
      if is_self_append_set fld.txt rhs then
        report st Finding.H4 e.pexp_loc
          "self-append to a mutable list field is quadratic across registrations; use \
           Pim_util.Vec";
      self.Ast_iterator.expr self lhs;
      self.Ast_iterator.expr self rhs
    | Pexp_try (body, cases) ->
      List.iter
        (fun c ->
          match c.pc_lhs.ppat_desc with
          | Ppat_any ->
            report st Finding.H3 c.pc_lhs.ppat_loc
              "catch-all handler swallows every exception (including Assert_failure); \
               match the exceptions you mean"
          | _ -> ())
        cases;
      self.Ast_iterator.expr self body;
      List.iter (fun c -> self.Ast_iterator.case self c) cases
    | Pexp_while (cond, body) ->
      self.Ast_iterator.expr self cond;
      with_loop self body
    | Pexp_for (pat, lo, hi, _, body) ->
      self.Ast_iterator.pat self pat;
      self.Ast_iterator.expr self lo;
      self.Ast_iterator.expr self hi;
      with_loop self body
    | _ -> default.expr self e
  in
  { default with Ast_iterator.expr }

(* A file that defines its own [compare] (e.g. lib/net/prefix.ml) uses
   the bare name for the typed function; H1 must not fire there. *)
let defines_compare structure =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = "compare"; _ } -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.structure it structure;
  !found

let check ~file structure =
  let st =
    {
      file;
      findings = [];
      sanctioned = Hashtbl.create 16;
      loop_depth = 0;
      shadowed_compare = defines_compare structure;
      deploy_scoped = is_experiment_file ~except:"stack.ml" file;
      runner_scoped = is_experiment_file ~except:"dsl.ml" file;
    }
  in
  let it = make_iterator st in
  it.Ast_iterator.structure it structure;
  List.sort Finding.compare st.findings
