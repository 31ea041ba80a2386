open Relalg
module L = Logical
module S = Scalar
module R = Dsl.Rule
module Pat = Dsl.Pattern

(* Every buggy variant carries ~version:"fault": it shares its victim's
   name and pattern, so only the version tag separates their content
   fingerprints — injecting a fault must invalidate warm-start caches
   keyed on rule content exactly like any other body edit. *)

(* Pushes every pushable conjunct below BOTH sides of a left outer join —
   pushing onto the NULL-padded right side is unsound (it drops padding
   rows the filter would have kept or keeps rows it should not). *)
let buggy_push_below_loj =
  R.make ~version:"fault" "PushSelectBelowLeftOuterJoin"
    (Pat.Op (L.KFilter, [ Pat.Op (L.KJoin L.LeftOuter, [ Pat.Any; Pat.Any ]) ]))
    (fun cat t ->
      match t with
      | L.Filter { pred; child = L.Join ({ kind = L.LeftOuter; left; right; _ } as j) } ->
        let lids = Props.output_idents cat left in
        let rids = Props.output_idents cat right in
        let pl, rest = R.split_by_scope pred lids in
        let pr, rest = R.split_by_scope rest rids in
        if S.equal pl S.true_ && S.equal pr S.true_ then []
        else
          let wrap pred child =
            if S.equal pred S.true_ then child else L.Filter { pred; child }
          in
          [ wrap rest (L.Join { j with left = wrap pl left; right = wrap pr right }) ]
      | _ -> [])

(* Rewrites Filter(LOJ) to Filter(Join) without checking that the filter
   is null-rejecting on the padded side. *)
let buggy_simplify_loj =
  R.make ~version:"fault" "SimplifyLeftOuterJoin"
    (Pat.Op (L.KFilter, [ Pat.Op (L.KJoin L.LeftOuter, [ Pat.Any; Pat.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred; child = L.Join ({ kind = L.LeftOuter; _ } as j) } ->
        [ L.Filter { pred; child = L.Join { j with kind = L.Inner } } ]
      | _ -> [])

(* Merges two stacked filters but forgets the inner predicate. *)
let buggy_select_merge =
  R.make ~version:"fault" "SelectMerge"
    (Pat.Op (L.KFilter, [ Pat.Op (L.KFilter, [ Pat.Any ]) ]))
    (fun _cat t ->
      match t with
      | L.Filter { pred = p1; child = L.Filter { pred = _p2; child } } ->
        [ L.Filter { pred = p1; child } ]
      | _ -> [])

(* Pushes a group-by below a join without requiring the join to be on a
   key of the other side: per-group fan-out corrupts the aggregates. *)
let buggy_gbagg_push =
  R.make ~version:"fault" "GbAggPushBelowJoin"
    (Pat.Op (L.KGroupBy, [ Pat.Op (L.KJoin L.Inner, [ Pat.Any; Pat.Any ]) ]))
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
          List.for_all
            (fun (_, a) -> Ident.Set.subset (Aggregate.columns a) xids)
            aggs
        in
        let pred_x_cols = Ident.Set.inter (S.columns pred) xids in
        (* Missing: Props.has_key_within cat y ky *)
        if
          aggs_read_x_only
          && Ident.Set.subset pred_x_cols key_set
          && kx <> []
          && List.length kx + List.length ky = List.length keys
        then
          match Props.schema cat t with
          | Error _ -> []
          | Ok out_cols ->
            [ R.identity_project out_cols
                (L.Join
                   { kind = L.Inner;
                     pred;
                     left = L.GroupBy { keys = kx; aggs; child = x };
                     right = y }) ]
        else []
      | _ -> [])

let faults =
  [ ( "PushSelectBelowLeftOuterJoin",
      buggy_push_below_loj,
      "pushes filter conjuncts below the NULL-padded side of a left outer join" );
    ( "SimplifyLeftOuterJoin",
      buggy_simplify_loj,
      "turns LOJ into inner join without the null-rejection precondition" );
    ("SelectMerge", buggy_select_merge, "drops the inner filter's predicate");
    ( "GbAggPushBelowJoin",
      buggy_gbagg_push,
      "pushes group-by below a join without the key precondition" ) ]

let names = List.map (fun (n, _, _) -> n) faults

let find name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) faults with
  | Some f -> f
  | None -> invalid_arg ("Faults: no buggy variant for rule " ^ name)

let inject name =
  let _, buggy, _ = find name in
  List.map
    (fun (r : R.t) -> if String.equal r.name name then buggy else r)
    Optimizer.Rules.all

let describe name =
  let _, _, d = find name in
  d
