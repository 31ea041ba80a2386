(** Additional exploration rules: filter/sort commutation, filter
    distribution over INTERSECT/EXCEPT, distinct motion around UNION ALL,
    and cross-join commutativity. Registered after the original rules so
    experiment configurations indexing the registry by prefix are
    unaffected. *)

val rules : Dsl.Rule.t list
