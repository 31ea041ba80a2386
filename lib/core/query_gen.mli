(** Pattern-based query generation — the paper's first contribution (§3).

    Fetch the rule's pattern through the optimizer's export API, build a
    logical query tree by instantiating the pattern (generic placeholders
    become scans; operators get arguments via {!Arggen}), convert to SQL,
    and verify with [RuleSet(q)] that the target rule actually fired.
    Rule pairs use pattern composition (§3.2): root-combination under a
    join or union, and substitution of one pattern into a generic slot of
    the other. *)

type generated = {
  query : Relalg.Logical.t;
  trials : int;  (** instantiation attempts consumed, successful one included *)
}

val instantiate : Arggen.ctx -> Dsl.Pattern.t -> Relalg.Logical.t option
(** One instantiation attempt. [None] when argument selection fails (e.g.
    no join predicate exists between the chosen tables). Returned trees
    satisfy {!Relalg.Props.validate}. *)

val compose :
  Dsl.Pattern.t -> Dsl.Pattern.t -> Dsl.Pattern.t list
(** All composite patterns for a rule pair, smallest first: substitutions
    of each pattern into each generic slot of the other, then
    root-combinations under Join and UnionAll. *)

val for_rule :
  ?max_trials:int ->
  ?extra_ops:int ->
  Framework.t ->
  Storage.Prng.t ->
  string ->
  generated option
(** PATTERN generation for a singleton rule: instantiate the rule's
    pattern until a query exercising the rule is found (checked via
    [RuleSet]). [extra_ops] pads the query with additional random
    operators, for complex correctness-test queries (§2.3). Default
    [max_trials] is 50. *)

val for_pair :
  ?max_trials:int ->
  ?extra_ops:int ->
  Framework.t ->
  Storage.Prng.t ->
  string * string ->
  generated option
(** PATTERN generation for a rule pair: round-robin over the composite
    patterns (smallest first) until a query exercises both rules. *)

val relevant_for_rule :
  ?max_trials:int ->
  ?extra_ops:int ->
  Framework.t ->
  Storage.Prng.t ->
  string ->
  generated option
(** The §7 variant of the generation problem: a query for which the rule is
    {e relevant} — disabling it changes the optimizer's plan choice, not
    merely the search. Implemented as pattern-based generation with an
    additional [Plan(q) <> Plan(q, ¬{r})] verification; [trials] counts
    every instantiation attempt. *)

val random_for_rules :
  ?max_trials:int ->
  ?min_ops:int ->
  ?max_ops:int ->
  Framework.t ->
  Storage.Prng.t ->
  string list ->
  generated option
(** The RANDOM baseline for the same task: stochastic queries until one
    exercises every rule in the list. *)
