(** Exploration rules over aggregation, distinct and set operations:
    group-by pull-up/push-down across joins (with the functional-dependency
    style preconditions the paper cites), group-by/distinct elimination on
    keys, set-operation commutativity/associativity, and rewrites of
    INTERSECT/EXCEPT into semi/anti-semi joins. *)

val rules : Dsl.Rule.t list
