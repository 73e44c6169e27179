(* Findings are shared by both analysis tiers:

   - the {e untyped} tier (PR 3) parses sources with compiler-libs and
     runs lexical/structural rules (the D and H families) on the Parsetree;
   - the {e typed} tier reads [.cmt] files (dune's [-bin-annot] output)
     and runs rules with real type and identity information (R1, L1-L3,
     T1) on the Typedtree.

   S1 (stale suppression) is emitted by the driver for whichever tier is
   running, and is the only warn-by-default rule. *)

type rule = D1 | D2 | H1 | H2 | H3 | H4 | H5 | H6 | H7 | S1 | R1 | L1 | L2 | L3 | T1

let all_rules = [ D1; D2; H1; H2; H3; H4; H5; H6; H7; S1; R1; L1; L2; L3; T1 ]

type tier = Untyped | Typed

let tier_id = function Untyped -> "untyped" | Typed -> "typed"

let tier_of_id = function
  | "untyped" -> Some Untyped
  | "typed" -> Some Typed
  | _ -> None

(* S1 is tier-less in spirit (the driver checks suppressions of the
   active tier) but files under the untyped column in the baseline. *)
let tier_of_rule = function
  | D1 | D2 | H1 | H2 | H3 | H4 | H5 | H6 | H7 | S1 -> Untyped
  | R1 | L1 | L2 | L3 | T1 -> Typed

let rule_id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | H1 -> "H1"
  | H2 -> "H2"
  | H3 -> "H3"
  | H4 -> "H4"
  | H5 -> "H5"
  | H6 -> "H6"
  | H7 -> "H7"
  | S1 -> "S1"
  | R1 -> "R1"
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | T1 -> "T1"

let rule_of_id = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "H1" -> Some H1
  | "H2" -> Some H2
  | "H3" -> Some H3
  | "H4" -> Some H4
  | "H5" -> Some H5
  | "H6" -> Some H6
  | "H7" -> Some H7
  | "S1" -> Some S1
  | "R1" -> Some R1
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "T1" -> Some T1
  | _ -> None

let rule_doc = function
  | D1 -> "unordered Hashtbl traversal whose result escapes"
  | D2 -> "randomness source other than Pim_util.Prng"
  | H1 -> "polymorphic compare"
  | H2 -> "float equality / physical equality on boxed values"
  | H3 -> "catch-all exception handler"
  | H4 -> "list append in a loop (quadratic growth)"
  | H5 -> "Vec.get over-applied (partial closure per call in -opaque builds)"
  | H6 -> "experiment deploys a protocol by hand instead of through Stack.create_many"
  | H7 -> "experiment runs its own engine loop instead of a program through Dsl.run"
  | S1 -> "stale suppression comment (its rule no longer fires)"
  | R1 -> "mutable state shared with a Domain.spawn closure without Atomic/Mutex"
  | L1 -> "timer armed without a cancel path or staleness guard reachable from restart"
  | L2 -> "state-table insert without a matching expiry/sweep/remove site"
  | L3 -> "payload constructor never matched: receivers swallow it via catch-alls"
  | T1 -> "typed determinism: Hashtbl order / polymorphic compare through aliases and functors"

type severity = Error | Warning

(* Every rule defaults to a build-failing error except S1, which exists
   to nag (a rotten suppression must not block the build it documents). *)
let default_severity = function S1 -> Warning | _ -> Error

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
      | c -> c)
    | c -> c)
  | c -> c

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_id f.rule) f.message
