(** Rule identifiers, severities and the finding record shared by the
    [pimlint] rule engines (untyped Parsetree tier and typed [.cmt]
    tier), baseline and drivers.  See [RULES.md] for the rationale
    behind each rule. *)

type rule = D1 | D2 | H1 | H2 | H3 | H4 | H5 | H6 | H7 | S1 | R1 | L1 | L2 | L3 | T1

val all_rules : rule list

type tier = Untyped | Typed

val tier_id : tier -> string

val tier_of_id : string -> tier option

val tier_of_rule : rule -> tier
(** Which analysis tier emits the rule.  D*, H* and S1 belong to the
    untyped Parsetree tier; R1, L1-L3 and T1 to the typed [.cmt] tier. *)

val rule_id : rule -> string

val rule_of_id : string -> rule option

val rule_doc : rule -> string
(** One-line summary used in [--help] style listings. *)

type severity = Error | Warning

val default_severity : rule -> severity
(** [Error] for every rule except S1 (stale suppression), which warns. *)

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

val compare : t -> t -> int
(** Canonical (file, line, col, rule) ordering, so reports are stable. *)

val pp : Format.formatter -> t -> unit
