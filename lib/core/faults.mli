(** Deliberately broken transformation rules, for demonstrating and
    testing the correctness-validation pipeline: with a fault injected,
    comparing [Plan(q)] against [Plan(q, ¬{r})] must surface a result
    mismatch (a "correctness bug", §2.3). Each fault keeps its victim's
    registry name, exactly like a buggy implementation shipped under the
    real rule's identity. *)

val names : string list
(** Names of rules for which a buggy variant exists. *)

val inject : string -> Dsl.Rule.t list
(** [inject victim] is {!Optimizer.Rules.all} with [victim]'s substitution
    replaced by the broken one. Raises [Invalid_argument] for unknown
    names. *)

val describe : string -> string
(** What the injected bug does wrong. *)
