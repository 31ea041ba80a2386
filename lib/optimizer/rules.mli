(** The rule registry: all exploration (logical) transformation rules in a
    canonical order, plus the pattern-export API the paper adds to the
    DBMS (§3.1: "we have extended the database server with an API through
    which it returns the rule pattern tree for a rule in a XML format"). *)

val all : Dsl.Rule.t list
(** All exploration rules; the order is stable and experiments index rules
    by position in this list. *)

val names : string list
val count : int
val find : string -> Dsl.Rule.t option
val find_exn : string -> Dsl.Rule.t

val nth : int -> Dsl.Rule.t
(** Raises [Invalid_argument] when out of range. *)

val pattern_xml : string -> string option
(** The XML rule-pattern export for a rule name. *)

val all_patterns_xml : unit -> string
(** One [<rules>...</rules>] document with every rule's pattern. *)

val fingerprints : unit -> (string * string) list
(** (name, content fingerprint) for every registered rule, in registry
    order. DSL-backed rules digest their full [Rdsl] term; closure rules
    digest (name, pattern, version tag). Any edit to a rule's definition
    yields a new fingerprint — the identity incremental maintenance and
    the warm-start matrix key are built on. *)

val source_of : string -> string
(** ["dsl"] when the named registered rule is compiled from an [Rdsl]
    term, ["closure"] otherwise. *)

val simulate_edit : ?rules:Dsl.Rule.t list -> string -> Dsl.Rule.t list
(** [simulate_edit name] is the registry (default {!all}) with the named
    rule rebuilt under a bumped version tag: same name, same pattern,
    same behavior, new content fingerprint — a behavior-preserving
    refactor of the rule's body, reproducible for warm-edit benchmarks,
    CI, and incremental-maintenance tests. The maintenance layer must
    recompute everything depending on the rule, and the recomputed
    results must equal the pre-edit ones byte for byte. Raises
    [Invalid_argument] for an unknown name. *)

val dsl_rules : (string * Dsl.Rdsl.rule) list
(** The DSL source of each DSL-backed registered rule (the join and select
    families), keyed by rule name, in registry order. *)

val rdsl_of : string -> Dsl.Rdsl.rule option
