(* The join family, stated in the rewrite DSL (lib/dsl/rdsl.ml) and
   compiled to engine rules. The original closure implementations are kept
   below as [closure_rules]: test_dsl.ml checks rule-by-rule that the
   compiled DSL rules produce identical substitutes on random trees, and
   the registry would fall back to them if a rule ever outgrew the DSL. *)

open Relalg
open Dsl
module L = Logical
module S = Scalar
module R = Dsl.Rdsl

(* Metavariable conventions: relations A=0, B=1, C=2; predicates p0, p1
   with join binders numbered innermost-first (so a Filter-over-Join lhs
   binds the join's predicate as p0 and the filter's as p1). *)
let a = R.Var 0
let b = R.Var 1
let c = R.Var 2
let p0 = R.Pvar 0
let p1 = R.Pvar 1

(* Push a filter below a join onto the side(s) legal for the kind:
   Filter[p1](Join[p0](A, B)) ->
   Filter?[resid](Join[p0](Filter?[part_A](A), Filter?[part_B](B))),
   the right part split from the residual left behind by the left split. *)
let push_select kind name ~left_ok ~right_ok : R.rule =
  let after_left = if left_ok then R.Presid (p1, R.Rels [ 0 ]) else p1 in
  let after_right = if right_ok then R.Presid (after_left, R.Rels [ 1 ]) else after_left in
  let wrap ok part child = if ok then R.Filter_nontrivial (part, child) else child in
  { name;
    lhs = R.Filter (p1, R.Join (kind, p0, a, b));
    rhs =
      R.Filter_nontrivial
        ( after_right,
          R.Join
            ( kind,
              p0,
              wrap left_ok (R.Ppart (p1, R.Rels [ 0 ])) a,
              wrap right_ok (R.Ppart (after_left, R.Rels [ 1 ])) b ) );
    sides =
      [ R.Some_pushed
          ((if left_ok then [ (p1, R.Rels [ 0 ]) ] else [])
          @ if right_ok then [ (after_left, R.Rels [ 1 ]) ] else []) ] }

(* A filter null-rejecting on the padded side turns an outer join into a
   stricter join. *)
let simplify_outer kind name ~reject_left ~result_kind : R.rule =
  { name;
    lhs = R.Filter (p1, R.Join (kind, p0, a, b));
    rhs = R.Filter (p1, R.Join (result_kind, p0, a, b));
    sides = [ R.Null_rejecting (1, [ (if reject_left then 0 else 1) ]) ] }

(* Join(A,B) -> Project[original order](Join(B,A)): the identity projection
   restores the output column order positional consumers rely on. *)
let commute kind name ~flipped : R.rule =
  { name;
    lhs = R.Join (kind, p0, a, b);
    rhs = R.Keep_schema (R.Join (flipped, p0, b, a));
    sides = [] }

let dsl : R.rule list =
  [ commute L.Inner "JoinCommute" ~flipped:L.Inner;
    (* (A join B) join C -> A join (B join C); conjuncts scoped to B u C
       sink into the new inner join *)
    { name = "JoinAssocLeft";
      lhs = R.Join (L.Inner, p1, R.Join (L.Inner, p0, a, b), c);
      rhs =
        R.Join
          ( L.Inner,
            R.Presid (R.Pand (p0, p1), R.Rels [ 1; 2 ]),
            a,
            R.Join (L.Inner, R.Ppart (R.Pand (p0, p1), R.Rels [ 1; 2 ]), b, c) );
      sides = [] };
    { name = "JoinAssocRight";
      lhs = R.Join (L.Inner, p1, a, R.Join (L.Inner, p0, b, c));
      rhs =
        R.Join
          ( L.Inner,
            R.Presid (R.Pand (p0, p1), R.Rels [ 0; 1 ]),
            R.Join (L.Inner, R.Ppart (R.Pand (p0, p1), R.Rels [ 0; 1 ]), a, b),
            c );
      sides = [] };
    { name = "CrossJoinToInnerJoin";
      lhs = R.Join (L.Cross, p0, a, b);
      rhs = R.Join (L.Inner, R.Ptrue, a, b);
      sides = [] };
    { name = "MergeSelectIntoJoin";
      lhs = R.Filter (p1, R.Join (L.Inner, p0, a, b));
      rhs = R.Join (L.Inner, R.Pand (p0, p1), a, b);
      sides = [] };
    { name = "SelectCrossToInnerJoin";
      lhs = R.Filter (p1, R.Join (L.Cross, p0, a, b));
      rhs = R.Join (L.Inner, p1, a, b);
      sides = [] };
    push_select L.Inner "PushSelectBelowJoin" ~left_ok:true ~right_ok:true;
    push_select L.Cross "PushSelectBelowCrossJoin" ~left_ok:true ~right_ok:true;
    push_select L.LeftOuter "PushSelectBelowLeftOuterJoin" ~left_ok:true ~right_ok:false;
    push_select L.RightOuter "PushSelectBelowRightOuterJoin" ~left_ok:false ~right_ok:true;
    push_select L.Semi "PushSelectBelowSemiJoin" ~left_ok:true ~right_ok:false;
    push_select L.AntiSemi "PushSelectBelowAntiSemiJoin" ~left_ok:true ~right_ok:false;
    simplify_outer L.LeftOuter "SimplifyLeftOuterJoin" ~reject_left:false
      ~result_kind:L.Inner;
    simplify_outer L.RightOuter "SimplifyRightOuterJoin" ~reject_left:true
      ~result_kind:L.Inner;
    simplify_outer L.FullOuter "SimplifyFullOuterJoinToRight" ~reject_left:false
      ~result_kind:L.RightOuter;
    simplify_outer L.FullOuter "SimplifyFullOuterJoinToLeft" ~reject_left:true
      ~result_kind:L.LeftOuter;
    commute L.LeftOuter "LeftOuterJoinCommute" ~flipped:L.RightOuter;
    commute L.RightOuter "RightOuterJoinCommute" ~flipped:L.LeftOuter;
    commute L.FullOuter "FullOuterJoinCommute" ~flipped:L.FullOuter;
    (* the paper's running example: R join (S LOJ T) -> (R join S) LOJ T,
       legal when the join predicate does not touch T *)
    { name = "JoinLeftOuterJoinAssoc";
      lhs = R.Join (L.Inner, p1, a, R.Join (L.LeftOuter, p0, b, c));
      rhs = R.Join (L.LeftOuter, p0, R.Join (L.Inner, p1, a, b), c);
      sides = [ R.Scoped_within (1, [ 0; 1 ]) ] };
    (* Semi(A,B,p) -> project_A(A join B) when B matches each A row at most
       once: the equi-join columns on B's side cover a key of B *)
    { name = "SemiJoinToInnerJoin";
      lhs = R.Join (L.Semi, p0, a, b);
      rhs = R.Keep_schema (R.Join (L.Inner, p0, a, b));
      sides = [ R.Key_within_equi (0, 0, 1) ] } ]

let rules = List.map R.compile dsl

(* ------------------------------------------------------------------ *)
(* The original closure implementations (parity reference / fallback). *)
(* ------------------------------------------------------------------ *)

let ( let* ) o f = match o with Ok v -> f v | Error _ -> []
let schema = Props.schema

let join_commute =
  Rule.make "JoinCommute"
    (Pattern.Op (L.KJoin L.Inner, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Join ({ kind = L.Inner; left; right; _ } as j) ->
        let* cols = schema cat t in
        [ Rule.identity_project cols (L.Join { j with left = right; right = left }) ]
      | _ -> [])

let join_assoc_left =
  Rule.make "JoinAssocLeft"
    (Pattern.Op
       ( L.KJoin L.Inner,
         [ Pattern.Op (L.KJoin L.Inner, [ Pattern.Any; Pattern.Any ]); Pattern.Any ] ))
    (fun cat t ->
      match t with
      | L.Join
          { kind = L.Inner;
            pred = p2;
            left = L.Join { kind = L.Inner; pred = p1; left = a; right = b };
            right = c } ->
        let bc = Ident.Set.union (Props.output_idents cat b) (Props.output_idents cat c) in
        let inner, outer = Rule.split_by_scope (S.And (p1, p2)) bc in
        [ L.Join
            { kind = L.Inner;
              pred = outer;
              left = a;
              right = L.Join { kind = L.Inner; pred = inner; left = b; right = c } } ]
      | _ -> [])

let join_assoc_right =
  Rule.make "JoinAssocRight"
    (Pattern.Op
       ( L.KJoin L.Inner,
         [ Pattern.Any; Pattern.Op (L.KJoin L.Inner, [ Pattern.Any; Pattern.Any ]) ] ))
    (fun cat t ->
      match t with
      | L.Join
          { kind = L.Inner;
            pred = p2;
            left = a;
            right = L.Join { kind = L.Inner; pred = p1; left = b; right = c } } ->
        let ab = Ident.Set.union (Props.output_idents cat a) (Props.output_idents cat b) in
        let inner, outer = Rule.split_by_scope (S.And (p1, p2)) ab in
        [ L.Join
            { kind = L.Inner;
              pred = outer;
              left = L.Join { kind = L.Inner; pred = inner; left = a; right = b };
              right = c } ]
      | _ -> [])

let cross_to_inner =
  Rule.make "CrossJoinToInnerJoin"
    (Pattern.Op (L.KJoin L.Cross, [ Pattern.Any; Pattern.Any ]))
    (fun _cat t ->
      match t with
      | L.Join { kind = L.Cross; left; right; _ } ->
        [ L.Join { kind = L.Inner; pred = S.true_; left; right } ]
      | _ -> [])

let merge_select_into_join =
  Rule.make "MergeSelectIntoJoin"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KJoin L.Inner, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Join ({ kind = L.Inner; _ } as j) } ->
        [ L.Join { j with pred = S.And (j.pred, pred) } ]
      | _ -> [])

let select_cross_to_inner =
  Rule.make "SelectCrossToInnerJoin"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KJoin L.Cross, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Join { kind = L.Cross; left; right; _ } } ->
        [ L.Join { kind = L.Inner; pred; left; right } ]
      | _ -> [])

(* Push a filter below a join, onto the side(s) it scopes to. *)
let push_select_closure kind name ~left_ok ~right_ok =
  Rule.make name
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KJoin kind, [ Pattern.Any; Pattern.Any ]) ]))
    (fun cat t ->
      match t with
      | L.Filter { pred; child = L.Join ({ kind = k; left; right; _ } as j) }
        when k = kind ->
        let lids = Props.output_idents cat left in
        let rids = Props.output_idents cat right in
        let pl, rest = if left_ok then Rule.split_by_scope pred lids else (S.true_, pred) in
        let pr, rest = if right_ok then Rule.split_by_scope rest rids else (S.true_, rest) in
        if S.equal pl S.true_ && S.equal pr S.true_ then []
        else
          let wrap pred child = if S.equal pred S.true_ then child else L.Filter { pred; child } in
          [ wrap rest (L.Join { j with left = wrap pl left; right = wrap pr right }) ]
      | _ -> [])

let push_select_below_join =
  push_select_closure L.Inner "PushSelectBelowJoin" ~left_ok:true ~right_ok:true

let push_select_below_cross =
  push_select_closure L.Cross "PushSelectBelowCrossJoin" ~left_ok:true ~right_ok:true

let push_select_below_loj =
  push_select_closure L.LeftOuter "PushSelectBelowLeftOuterJoin" ~left_ok:true ~right_ok:false

let push_select_below_roj =
  push_select_closure L.RightOuter "PushSelectBelowRightOuterJoin" ~left_ok:false ~right_ok:true

let push_select_below_semi =
  push_select_closure L.Semi "PushSelectBelowSemiJoin" ~left_ok:true ~right_ok:false

let push_select_below_anti =
  push_select_closure L.AntiSemi "PushSelectBelowAntiSemiJoin" ~left_ok:true ~right_ok:false

(* Filter null-rejecting on the padded side turns an outer join into a
   stricter join. *)
let simplify_outer_closure kind name ~reject_left ~result_kind =
  Rule.make name
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KJoin kind, [ Pattern.Any; Pattern.Any ]) ]))
    (fun cat t ->
      match t with
      | L.Filter { pred; child = L.Join ({ kind = k; left; right; _ } as j) }
        when k = kind ->
        let side = if reject_left then left else right in
        let side_ids = Props.output_idents cat side in
        if S.is_null_rejecting pred side_ids then
          [ L.Filter { pred; child = L.Join { j with kind = result_kind } } ]
        else []
      | _ -> [])

let simplify_loj =
  simplify_outer_closure L.LeftOuter "SimplifyLeftOuterJoin" ~reject_left:false
    ~result_kind:L.Inner

let simplify_roj =
  simplify_outer_closure L.RightOuter "SimplifyRightOuterJoin" ~reject_left:true
    ~result_kind:L.Inner

let simplify_foj_to_roj =
  simplify_outer_closure L.FullOuter "SimplifyFullOuterJoinToRight" ~reject_left:false
    ~result_kind:L.RightOuter

let simplify_foj_to_loj =
  simplify_outer_closure L.FullOuter "SimplifyFullOuterJoinToLeft" ~reject_left:true
    ~result_kind:L.LeftOuter

let commute_outer kind name ~flipped =
  Rule.make name
    (Pattern.Op (L.KJoin kind, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Join ({ kind = k; left; right; _ } as j) when k = kind ->
        let* cols = schema cat t in
        [ Rule.identity_project cols
            (L.Join { j with kind = flipped; left = right; right = left }) ]
      | _ -> [])

let loj_commute = commute_outer L.LeftOuter "LeftOuterJoinCommute" ~flipped:L.RightOuter
let roj_commute = commute_outer L.RightOuter "RightOuterJoinCommute" ~flipped:L.LeftOuter
let foj_commute = commute_outer L.FullOuter "FullOuterJoinCommute" ~flipped:L.FullOuter

(* The paper's running example: R join (S LOJ T) -> (R join S) LOJ T, legal
   when the join predicate does not touch T. *)
let join_loj_assoc =
  Rule.make "JoinLeftOuterJoinAssoc"
    (Pattern.Op
       ( L.KJoin L.Inner,
         [ Pattern.Any;
           Pattern.Op (L.KJoin L.LeftOuter, [ Pattern.Any; Pattern.Any ]) ] ))
    (fun cat t ->
      match t with
      | L.Join
          { kind = L.Inner;
            pred = p1;
            left = r;
            right = L.Join { kind = L.LeftOuter; pred = p2; left = s; right = tt } } ->
        let rs = Ident.Set.union (Props.output_idents cat r) (Props.output_idents cat s) in
        if Ident.Set.subset (S.columns p1) rs then
          [ L.Join
              { kind = L.LeftOuter;
                pred = p2;
                left = L.Join { kind = L.Inner; pred = p1; left = r; right = s };
                right = tt } ]
        else []
      | _ -> [])

(* Semi(A,B,p) -> project_A(A join B) when B matches each A row at most
   once: the equi-join columns on B's side cover a key of B. *)
let semi_to_inner =
  Rule.make "SemiJoinToInnerJoin"
    (Pattern.Op (L.KJoin L.Semi, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Join { kind = L.Semi; pred; left; right } ->
        let lids = Props.output_idents cat left in
        let rids = Props.output_idents cat right in
        let _, rcols = Props.equi_join_columns pred lids rids in
        if Props.has_key_within cat right rcols then
          let* lcols = schema cat left in
          [ Rule.identity_project lcols
              (L.Join { kind = L.Inner; pred; left; right }) ]
        else []
      | _ -> [])

let closure_rules =
  [ join_commute; join_assoc_left; join_assoc_right; cross_to_inner;
    merge_select_into_join; select_cross_to_inner; push_select_below_join;
    push_select_below_cross; push_select_below_loj; push_select_below_roj;
    push_select_below_semi; push_select_below_anti; simplify_loj; simplify_roj;
    simplify_foj_to_roj; simplify_foj_to_loj; loj_commute; roj_commute;
    foj_commute; join_loj_assoc; semi_to_inner ]
