(** Rules as data: a declarative rewrite DSL over relation ([rv]),
    predicate ([pv]) and projection-definition ([dv]) metavariables, with
    explicit side-conditions; an interpreter compiling a rule to the
    engine's [Rule.t]; and a bounded symbolic verification oracle
    ([Verify]) that checks both sides set-theoretically over small
    symbolic tables with distinguished rows and NULLs — no executor
    involved. *)

type rv = int
(** Relation metavariable (rendered A, B, C). *)

type pv = int
(** Predicate metavariable (rendered p0, p1). *)

type dv = int
(** Projection-definition metavariable (rendered d0, d1). *)

type scope =
  | Rels of rv list
      (** the output columns of these relation metavariables *)
  | Keys  (** the grouping keys of the rule's (single) GroupBy binder *)

(** Predicate expressions. [Ppart (e, s)] / [Presid (e, s)] are the two
    halves of [Rule.split_by_scope e s]; [Pfirst]/[Prest] split off the
    first conjunct; [Prename (e, a, b)] positionally renames [b]'s columns
    to [a]'s; [Psubst (d, e)] substitutes [d]'s definitions into [e]. *)
type pexp =
  | Ptrue
  | Pvar of pv
  | Pand of pexp * pexp
  | Ppart of pexp * scope
  | Presid of pexp * scope
  | Pfirst of pv
  | Prest of pv
  | Prename of pexp * rv * rv
  | Psubst of dv * pexp

type dexp =
  | Dvar of dv
  | Dcompose of dv * dv  (** outer-after-inner composition *)

(** Tree terms. On the lhs, [Filter]/[Join] must bind a [Pvar], [Proj] a
    [Dvar], and [GroupBy] binds its keys/aggs slot. Rhs-only: a
    [Filter_nontrivial] is emitted only when its predicate is non-trivial,
    and [Keep_schema] is the identity projection restoring the lhs root's
    output columns. *)
type term =
  | Var of rv
  | Filter of pexp * term
  | Filter_nontrivial of pexp * term
  | Join of Relalg.Logical.join_kind * pexp * term * term
  | Proj of dexp * term
  | GroupBy of term
  | Distinct of term
  | UnionAll of term * term
  | Union of term * term
  | Keep_schema of term

(** Side-conditions. The first five are semantic — the rewrite is unsound
    without them, and [Verify] models them as constraints. [Splittable]
    and [Some_pushed] are firing-only: they restrict when the rule fires,
    never its soundness, and the oracle verifies the rewrite without
    them (a superset of the fired cases). *)
type side =
  | Null_rejecting of pv * rv list
  | Key_within_equi of pv * rv * rv
  | Trivial of pv
  | Identity_proj of dv * rv
  | Scoped_within of pv * rv list
  | Splittable of pv
  | Some_pushed of (pexp * scope) list

type rule = { name : string; lhs : term; rhs : term; sides : side list }

val firing_only : side -> bool

val pattern : rule -> Pattern.t
(** The engine pattern of the rule's lhs ([Var] becomes [Any]). *)

val rvars : rule -> rv list
(** Sorted distinct relation metavariables of the lhs. *)

val image :
  Storage.Catalog.t -> rule -> Relalg.Logical.t -> Relalg.Logical.t option
(** One application at the root: match the lhs, check the sides, build the
    rhs. [None] when the rule does not fire. *)

val compile : rule -> Rule.t
(** Compile to an engine rule. The compiled [apply] returns
    [image cat r tree] as a singleton (or []), so DSL-backed rules flow
    through exploration, generation, compression and discovery unchanged.
    The compiled rule's [fingerprint] is {!fingerprint}[ r], so editing
    any part of the definition (lhs, rhs, side conditions) changes the
    rule's content identity. *)

val fingerprint : rule -> string
(** Content digest of the rule's deterministic {!to_string} rendering —
    the DSL half of the registry's rule-content fingerprints. *)


val mutations : rule -> (string * rule) list
(** Systematically broken variants (dropped side-conditions, dropped
    conjuncts/residuals/renames/substitutions, widened parts) for
    rule-definition fuzzing, labelled by mutation tag. *)

val to_string : rule -> string
val pp : Format.formatter -> rule -> unit

val soundness_note : rule -> string
(** Human-readable note separating semantic side-conditions from
    firing-only ones. *)

module Verify : sig
  type counterexample = {
    instances : (string * string) list;
        (** relation metavariable -> symbolic instance *)
    valuation : string list;  (** predicate atom assignments *)
    lhs_rows : string;
    rhs_rows : string;
  }

  type verdict =
    | Sound_bounded
        (** both sides agree on every symbolic instance within the bounds *)
    | Refuted of counterexample
    | Unknown of string  (** out of the oracle's fragment, or budget hit *)

  val verify : ?max_valuations:int -> rule -> verdict
  (** Enumerates small symbolic instances (up to two distinguished rows
      per relation, with duplicates and outer-join NULL padding), all
      predicate behaviors as boolean valuations over predicate atoms
      (discovered lazily), and all groupings; compares both sides as row
      multisets. Semantic side-conditions constrain the enumeration;
      firing-only ones are ignored. Deterministic. *)

  val verdict_to_string : verdict -> string
end
