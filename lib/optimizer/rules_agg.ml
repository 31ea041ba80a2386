open Relalg
open Dsl
module L = Logical
module S = Scalar

let ( let* ) o f = match o with Ok v -> f v | Error _ -> []

let agg_ids aggs = Ident.Set.of_list (List.map fst aggs)

(* Join(GbAgg(X), Y)  ->  GbAgg'(Join(X, Y)), regrouping on the original
   keys plus all of Y's columns. Preconditions: the join predicate must not
   reference aggregate outputs (every X-row of a group then joins the same
   Y rows), and Y must be duplicate-free (it has a candidate key), so the
   wider grouping does not collapse distinct Y rows. *)
let gbagg_pull_above_join =
  Rule.make "GbAggPullAboveJoin"
    (Pattern.Op
       ( L.KJoin L.Inner,
         [ Pattern.Op (L.KGroupBy, [ Pattern.Any ]); Pattern.Any ] ))
    (fun cat t ->
      match t with
      | L.Join
          { kind = L.Inner;
            pred;
            left = L.GroupBy { keys; aggs; child = x };
            right = y } ->
        let pred_cols = S.columns pred in
        let touches_aggs =
          not (Ident.Set.is_empty (Ident.Set.inter pred_cols (agg_ids aggs)))
        in
        if touches_aggs || Props.keys cat y = [] then []
        else
          let* out_cols = Props.schema cat t in
          let* y_cols = Props.schema cat y in
          let new_keys = keys @ List.map (fun (c : Props.col_info) -> c.id) y_cols in
          [ Rule.identity_project out_cols
              (L.GroupBy
                 { keys = new_keys;
                   aggs;
                   child = L.Join { kind = L.Inner; pred; left = x; right = y } }) ]
      | _ -> [])

(* GbAgg(Join(X, Y))  ->  Join(GbAgg'(X), Y). Preconditions: aggregates
   read only X; the X-side predicate columns are grouping keys (groups
   survive or die whole); Y joins on a key subset of the Y-side grouping
   keys (no per-group fan-out beyond distinct kY values); and at least one
   grouping key comes from X (a pushed global aggregate would fabricate a
   row from an empty X). *)
let gbagg_push_below_join =
  Rule.make "GbAggPushBelowJoin"
    (Pattern.Op
       ( L.KGroupBy,
         [ Pattern.Op (L.KJoin L.Inner, [ Pattern.Any; Pattern.Any ]) ] ))
    (fun cat t ->
      match t with
      | L.GroupBy
          { keys; aggs; child = L.Join { kind = L.Inner; pred; left = x; right = y } } ->
        let xids = Props.output_idents cat x in
        let yids = Props.output_idents cat y in
        let key_set = Ident.Set.of_list keys in
        let kx = List.filter (fun k -> Ident.Set.mem k xids) keys in
        let ky = List.filter (fun k -> Ident.Set.mem k yids) keys in
        let aggs_read_x_only =
          List.for_all (fun (_, a) -> Ident.Set.subset (Aggregate.columns a) xids) aggs
        in
        let pred_x_cols = Ident.Set.inter (S.columns pred) xids in
        let preconditions =
          aggs_read_x_only
          && Ident.Set.subset pred_x_cols key_set
          && Props.has_key_within cat y (Ident.Set.of_list ky)
          && kx <> []
          && List.length kx + List.length ky = List.length keys
        in
        if not preconditions then []
        else
          let* out_cols = Props.schema cat t in
          [ Rule.identity_project out_cols
              (L.Join
                 { kind = L.Inner;
                   pred;
                   left = L.GroupBy { keys = kx; aggs; child = x };
                   right = y }) ]
      | _ -> [])

(* Grouping on a key of the input: every group has exactly one row, so
   SUM/MIN/MAX degenerate to their argument and COUNT-star to 1. *)
let gbagg_eliminate_on_key =
  Rule.make "GbAggEliminateOnKey"
    (Pattern.Op (L.KGroupBy, [ Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.GroupBy { keys; aggs; child } ->
        let single_row_groups =
          Props.has_key_within cat child (Ident.Set.of_list keys)
        in
        let expressible = function
          | Aggregate.Sum e | Aggregate.Min e | Aggregate.Max e -> Some e
          | Aggregate.CountStar -> Some (S.int 1)
          | Aggregate.Count _ | Aggregate.Avg _ -> None
        in
        if not single_row_groups then []
        else
          let items = List.map (fun (id, a) -> (id, expressible a)) aggs in
          if List.exists (fun (_, e) -> e = None) items then []
          else
            let cols =
              List.map (fun k -> (k, S.Col k)) keys
              @ List.map (fun (id, e) -> (id, Option.get e)) items
            in
            [ L.Project { cols; child } ]
      | _ -> [])

let distinct_elim_on_key =
  Rule.make "DistinctElimOnKey"
    (Pattern.Op (L.KDistinct, [ Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Distinct child -> if Props.keys cat child <> [] then [ child ] else []
      | _ -> [])

let union_to_unionall =
  Rule.make "UnionToUnionAllDistinct"
    (Pattern.Op (L.KUnion, [ Pattern.Any; Pattern.Any ]))
    (fun _cat t ->
      match t with
      | L.Union (a, b) -> [ L.Distinct (L.UnionAll (a, b)) ]
      | _ -> [])

(* Set-operation commutes; a projection renames the (positional) output
   back to the left branch's column identifiers. *)
let setop_commute op_kind name rebuild destruct =
  Rule.make name
    (Pattern.Op (op_kind, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match destruct t with
      | Some (a, b) ->
        let* ac = Props.schema cat a in
        let* bc = Props.schema cat b in
        let cols =
          List.map2
            (fun (ca : Props.col_info) (cb : Props.col_info) -> (ca.id, S.Col cb.id))
            ac bc
        in
        [ L.Project { cols; child = rebuild b a } ]
      | None -> [])

let unionall_commute =
  setop_commute L.KUnionAll "UnionAllCommute"
    (fun a b -> L.UnionAll (a, b))
    (function L.UnionAll (a, b) -> Some (a, b) | _ -> None)

let union_commute =
  setop_commute L.KUnion "UnionCommute"
    (fun a b -> L.Union (a, b))
    (function L.Union (a, b) -> Some (a, b) | _ -> None)

let intersect_commute =
  setop_commute L.KIntersect "IntersectCommute"
    (fun a b -> L.Intersect (a, b))
    (function L.Intersect (a, b) -> Some (a, b) | _ -> None)

let unionall_assoc_left =
  Rule.make "UnionAllAssocLeft"
    (Pattern.Op
       (L.KUnionAll, [ Pattern.Op (L.KUnionAll, [ Pattern.Any; Pattern.Any ]); Pattern.Any ]))
    (fun _cat t ->
      match t with
      | L.UnionAll (L.UnionAll (a, b), c) -> [ L.UnionAll (a, L.UnionAll (b, c)) ]
      | _ -> [])

let unionall_assoc_right =
  Rule.make "UnionAllAssocRight"
    (Pattern.Op
       (L.KUnionAll, [ Pattern.Any; Pattern.Op (L.KUnionAll, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.UnionAll (a, L.UnionAll (b, c)) -> [ L.UnionAll (L.UnionAll (a, b), c) ]
      | _ -> [])

(* INTERSECT / EXCEPT as (anti-)semi-joins under null-safe row equality. *)
let intersect_to_semi =
  Rule.make "IntersectToSemiJoin"
    (Pattern.Op (L.KIntersect, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Intersect (a, b) ->
        let* ac = Props.schema cat a in
        let* bc = Props.schema cat b in
        [ L.Distinct
            (L.Join
               { kind = L.Semi;
                 pred = Rule.null_safe_row_eq ac bc;
                 left = a;
                 right = b }) ]
      | _ -> [])

let except_to_antisemi =
  Rule.make "ExceptToAntiSemiJoin"
    (Pattern.Op (L.KExcept, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Except (a, b) ->
        let* ac = Props.schema cat a in
        let* bc = Props.schema cat b in
        [ L.Distinct
            (L.Join
               { kind = L.AntiSemi;
                 pred = Rule.null_safe_row_eq ac bc;
                 left = a;
                 right = b }) ]
      | _ -> [])

let sort_merge =
  Rule.make "SortMerge"
    (Pattern.Op (L.KSort, [ Pattern.Op (L.KSort, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Sort { keys; child = L.Sort { child; _ } } -> [ L.Sort { keys; child } ]
      | _ -> [])

let rules =
  [ gbagg_pull_above_join; gbagg_push_below_join; gbagg_eliminate_on_key;
    distinct_elim_on_key; union_to_unionall; unionall_commute; union_commute;
    intersect_commute; unionall_assoc_left; unionall_assoc_right;
    intersect_to_semi; except_to_antisemi; sort_merge ]
