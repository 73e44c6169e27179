(** The pimlint rule engine: a single untyped-Parsetree traversal
    producing findings for rules D1, D2, H1–H7 (see [RULES.md]).
    Suppression comments and the baseline are applied by {!Lint}, not
    here. *)

val check : file:string -> Parsetree.structure -> Finding.t list
(** Findings in canonical (file, line, col, rule) order. *)
