open Relalg
open Dsl
module L = Logical
module S = Scalar

let ( let* ) o f = match o with Ok v -> f v | Error _ -> []

(* Filtering commutes with sorting (result comparison is bag-based; the
   executor's sort is stable either way). *)
let select_below_sort =
  Rule.make "PushSelectBelowSort"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KSort, [ Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Sort { keys; child } } ->
        [ L.Sort { keys; child = L.Filter { pred; child } } ]
      | _ -> [])

(* Filter distributes into both branches of INTERSECT: positionally equal
   rows give the predicate the same value on either side. *)
let select_below_intersect =
  Rule.make "PushSelectBelowIntersect"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KIntersect, [ Pattern.Any; Pattern.Any ]) ]))
    (fun cat t ->
      match t with
      | L.Filter { pred; child = L.Intersect (a, b) } ->
        let* ac = Props.schema cat a in
        let* bc = Props.schema cat b in
        let rename = Rule.positional_rename ac bc in
        [ L.Intersect
            ( L.Filter { pred; child = a },
              L.Filter { pred = S.rename rename pred; child = b } ) ]
      | _ -> [])

(* For EXCEPT only the left branch may be filtered:
   {x in a : x not in b and p(x)} = filter(a) EXCEPT b. *)
let select_below_except =
  Rule.make "PushSelectBelowExcept"
    (Pattern.Op (L.KFilter, [ Pattern.Op (L.KExcept, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Except (a, b) } ->
        [ L.Except (L.Filter { pred; child = a }, b) ]
      | _ -> [])

(* The inverse of UnionToUnionAllDistinct. *)
let distinct_unionall_to_union =
  Rule.make "DistinctUnionAllToUnion"
    (Pattern.Op (L.KDistinct, [ Pattern.Op (L.KUnionAll, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Distinct (L.UnionAll (a, b)) -> [ L.Union (a, b) ]
      | _ -> [])

(* Deduplicating early on both branches cannot change the deduplicated
   union (local duplicates are removed by the outer Distinct anyway). *)
let distinct_below_unionall =
  Rule.make "PushDistinctBelowUnionAll"
    (Pattern.Op (L.KDistinct, [ Pattern.Op (L.KUnionAll, [ Pattern.Any; Pattern.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Distinct (L.UnionAll (a, b)) ->
        [ L.Distinct (L.UnionAll (L.Distinct a, L.Distinct b)) ]
      | _ -> [])

let cross_commute =
  Rule.make "CrossJoinCommute"
    (Pattern.Op (L.KJoin L.Cross, [ Pattern.Any; Pattern.Any ]))
    (fun cat t ->
      match t with
      | L.Join ({ kind = L.Cross; left; right; _ } as j) ->
        let* cols = Props.schema cat t in
        [ Rule.identity_project cols (L.Join { j with left = right; right = left }) ]
      | _ -> [])

let rules =
  [ select_below_sort; select_below_intersect; select_below_except;
    distinct_unionall_to_union; distinct_below_unionall; cross_commute ]
