(** Exploration rules over filters and projections: merge/split, commuting
    with Project/GroupBy/Distinct, pushing below set operations, and
    trivial-operator elimination. Stated declaratively in the rewrite DSL
    and compiled; the original closure implementations remain available
    for parity testing and as a fallback. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)

val rules : Dsl.Rule.t list
(** [List.map Dsl.Rdsl.compile dsl]. *)

val closure_rules : Dsl.Rule.t list
(** The original hand-written closures, same names and order as [rules];
    test_dsl.ml checks substitute-level parity against them. *)
