(** Exploration rules over joins: commutativity, associativity,
    select-pushdown, outer-join simplification and commutation,
    join/outer-join associativity (the paper's §3 example), semi-join to
    inner join. Stated declaratively in the rewrite DSL and compiled; the
    original closure implementations remain available for parity testing
    and as a fallback. *)

val dsl : Dsl.Rdsl.rule list
(** The family as DSL rules, in registry order. *)

val rules : Dsl.Rule.t list
(** [List.map Dsl.Rdsl.compile dsl]. *)

val closure_rules : Dsl.Rule.t list
(** The original hand-written closures, same names and order as [rules];
    test_dsl.ml checks substitute-level parity against them. *)
