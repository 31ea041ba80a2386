(* The select/project family, stated in the rewrite DSL (lib/dsl/rdsl.ml)
   and compiled to engine rules. The original closure implementations are
   kept below as [closure_rules]: test_dsl.ml checks rule-by-rule that the
   compiled DSL rules produce identical substitutes on random trees, and
   the registry would fall back to them if a rule ever outgrew the DSL. *)

open Relalg
open Dsl
module L = Logical
module S = Scalar
module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1; predicates p0 (outermost
   binder first), p1; projection definitions d0 (outermost first), d1. *)
let a = R.Var 0
let b = R.Var 1
let p0 = R.Pvar 0
let p1 = R.Pvar 1

let dsl : R.rule list =
  [ { name = "SelectMerge";
      lhs = R.Filter (p0, R.Filter (p1, a));
      rhs = R.Filter (R.Pand (p0, p1), a);
      sides = [] };
    { name = "SelectSplit";
      lhs = R.Filter (p0, a);
      rhs = R.Filter (R.Pfirst 0, R.Filter (R.Prest 0, a));
      sides = [ R.Splittable 0 ] };
    { name = "SelectOverProject";
      lhs = R.Filter (p0, R.Proj (R.Dvar 0, a));
      rhs = R.Proj (R.Dvar 0, R.Filter (R.Psubst (0, p0), a));
      sides = [] };
    { name = "SelectBelowGbAgg";
      (* conjuncts over the grouping keys commute with aggregation *)
      lhs = R.Filter (p0, R.GroupBy a);
      rhs =
        R.Filter_nontrivial
          (R.Presid (p0, R.Keys), R.GroupBy (R.Filter (R.Ppart (p0, R.Keys), a)));
      sides = [ R.Some_pushed [ (p0, R.Keys) ] ] };
    { name = "SelectBelowUnionAll";
      lhs = R.Filter (p0, R.UnionAll (a, b));
      rhs = R.UnionAll (R.Filter (p0, a), R.Filter (R.Prename (p0, 0, 1), b));
      sides = [] };
    { name = "SelectBelowUnion";
      lhs = R.Filter (p0, R.Union (a, b));
      rhs = R.Union (R.Filter (p0, a), R.Filter (R.Prename (p0, 0, 1), b));
      sides = [] };
    { name = "SelectBelowDistinct";
      lhs = R.Filter (p0, R.Distinct a);
      rhs = R.Distinct (R.Filter (p0, a));
      sides = [] };
    { name = "RemoveTrivialSelect";
      lhs = R.Filter (p0, a);
      rhs = a;
      sides = [ R.Trivial 0 ] };
    { name = "ProjectMerge";
      lhs = R.Proj (R.Dvar 0, R.Proj (R.Dvar 1, a));
      rhs = R.Proj (R.Dcompose (0, 1), a);
      sides = [] };
    { name = "RemoveIdentityProject";
      lhs = R.Proj (R.Dvar 0, a);
      rhs = a;
      sides = [ R.Identity_proj (0, 0) ] } ]

let rules = List.map R.compile dsl

(* ------------------------------------------------------------------ *)
(* The original closure implementations (parity reference / fallback). *)
(* ------------------------------------------------------------------ *)

let ( let* ) o f = match o with Ok v -> f v | Error _ -> []

let select_merge =
  Rule.make "SelectMerge"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KFilter, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred = p1; child = L.Filter { pred = p2; child } } ->
        [ L.Filter { pred = S.And (p1, p2); child } ]
      | _ -> [])

let select_split =
  Rule.make "SelectSplit"
    (Pattern.Op (L.KFilter, [ Pattern.Any ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child } -> (
        match S.conjuncts pred with
        | first :: (_ :: _ as rest) ->
          [ L.Filter { pred = first; child = L.Filter { pred = S.conj rest; child } } ]
        | _ -> [])
      | _ -> [])

(* Filter(p, Project(items, X)) -> Project(items, Filter(p[items], X)):
   substitute each projected output column by its defining expression. *)
let select_over_project =
  Rule.make "SelectOverProject"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KProject, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Project { cols; child } } ->
        let lookup id =
          List.find_map
            (fun (out, e) -> if Ident.equal out id then Some e else None)
            cols
        in
        [ L.Project { cols; child = L.Filter { pred = Rule.subst lookup pred; child } } ]
      | _ -> [])

(* Conjuncts over the grouping keys commute with aggregation. *)
let select_below_groupby =
  Rule.make "SelectBelowGbAgg"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KGroupBy, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.GroupBy ({ keys; _ } as g) } ->
        let pk, rest = Rule.split_by_scope pred (Ident.Set.of_list keys) in
        if S.equal pk S.true_ then []
        else
          let pushed = L.GroupBy { g with child = L.Filter { pred = pk; child = g.child } } in
          [ (if S.equal rest S.true_ then pushed else L.Filter { pred = rest; child = pushed }) ]
      | _ -> [])

(* Filter distributes over both branches of a set operation; on the right
   branch column references are renamed positionally. *)
let select_below_setop inner_kind name rebuild =
  Rule.make name
    (Pattern.Op (L.KFilter, [ Pattern.Op (inner_kind, [ Pattern.Any; Pattern.Any ]) ]))
    (fun cat t ->
      match t with
      | L.Filter { pred; child } when L.kind child = inner_kind -> (
        match L.children child with
        | [ a; b ] ->
          let* ac = Props.schema cat a in
          let* bc = Props.schema cat b in
          let rename = Rule.positional_rename ac bc in
          let pred_b = S.rename rename pred in
          [ rebuild (L.Filter { pred; child = a }) (L.Filter { pred = pred_b; child = b }) ]
        | _ -> [])
      | _ -> [])

let select_below_unionall =
  select_below_setop L.KUnionAll "SelectBelowUnionAll" (fun a b -> L.UnionAll (a, b))

let select_below_union =
  select_below_setop L.KUnion "SelectBelowUnion" (fun a b -> L.Union (a, b))

let select_below_distinct =
  Rule.make "SelectBelowDistinct"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KDistinct, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Distinct inner } ->
        [ L.Distinct (L.Filter { pred; child = inner }) ]
      | _ -> [])

let remove_trivial_select =
  Rule.make "RemoveTrivialSelect"
    (Pattern.Op (L.KFilter, [ Pattern.Any ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child } when S.equal pred S.true_ -> [ child ]
      | _ -> [])

let project_merge =
  Rule.make "ProjectMerge"
    (Pattern.Op (L.KProject, [ Pattern.Op (L.KProject, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Project { cols = outer; child = L.Project { cols = inner; child } } ->
        let lookup id =
          List.find_map
            (fun (out, e) -> if Ident.equal out id then Some e else None)
            inner
        in
        let merged = List.map (fun (out, e) -> (out, Rule.subst lookup e)) outer in
        [ L.Project { cols = merged; child } ]
      | _ -> [])

let remove_identity_project =
  Rule.make "RemoveIdentityProject"
    (Pattern.Op (L.KProject, [ Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Project { cols; child } ->
        let* child_cols = Props.schema cat child in
        let identity =
          List.length cols = List.length child_cols
          && List.for_all2
               (fun (id, e) (ci : Props.col_info) ->
                 Ident.equal id ci.id
                 && match e with S.Col c -> Ident.equal c ci.id | _ -> false)
               cols child_cols
        in
        if identity then [ child ] else []
      | _ -> [])

let closure_rules =
  [ select_merge; select_split; select_over_project; select_below_groupby;
    select_below_unionall; select_below_union; select_below_distinct;
    remove_trivial_select; project_merge; remove_identity_project ]
