module L = Relalg.Logical
module S = Relalg.Scalar
module I = Relalg.Ident
module P = Relalg.Props
module RS = Executor.Resultset

let checks_c = Obs.Metrics.counter "triage.differential.checks"
let exec_c = Obs.Metrics.counter "triage.differential.executions"

let align cat ~reference t =
  match (P.schema cat reference, P.schema cat t) with
  | Error e, _ -> Error ("lhs schema: " ^ e)
  | _, Error e -> Error ("rhs schema: " ^ e)
  | Ok ls, Ok rs ->
    let ids cols = List.map (fun (c : P.col_info) -> c.id) cols in
    let lid = ids ls and rid = ids rs in
    if List.equal I.equal lid rid then Ok t
    else if I.Set.equal (I.Set.of_list lid) (I.Set.of_list rid) then
      Ok (Dsl.Rule.identity_project ls t)
    else if
      List.length ls = List.length rs
      && List.for_all2
           (fun (a : P.col_info) (b : P.col_info) -> a.ty = b.ty)
           ls rs
    then
      Ok (L.Project
            { cols = List.map2 (fun (lc : P.col_info) (rc : P.col_info) ->
                  (lc.id, S.Col rc.id)) ls rs;
              child = t })
    else Error "incomparable output schemas"

let plan ?(budget = 1) cat t =
  let options = { Optimizer.Engine.default_options with max_trees = budget } in
  match Optimizer.Engine.optimize ~options ~rules:[] cat t with
  | Error e -> Error e
  | Ok r -> Ok r.plan

let check ?(site = "differential") ?(budget = 1) cat lhs rhs =
  let ( let* ) = Result.bind in
  Obs.Metrics.incr checks_c;
  let* () = Result.map_error (fun e -> "lhs validate: " ^ e) (P.validate cat lhs) in
  let* () = Result.map_error (fun e -> "rhs validate: " ^ e) (P.validate cat rhs) in
  let* rhs = align cat ~reference:lhs rhs in
  let* lplan = Result.map_error (fun e -> "lhs plan: " ^ e) (plan ~budget cat lhs) in
  let* rplan = Result.map_error (fun e -> "rhs plan: " ^ e) (plan ~budget cat rhs) in
  (* Logical executions: counted whether or not the result cache serves
     the run, so reported totals match across [--jobs] settings. *)
  Obs.Metrics.add exec_c 2;
  let* expected =
    Result.map_error (fun e -> "lhs exec: " ^ e) (Executor.Cache.run ~site cat lplan)
  in
  match Executor.Cache.run ~site cat rplan with
  | Error e ->
    Ok (Some (Divergence.exec_error ~expected_rows:(RS.row_count expected) e))
  | Ok actual -> (
    match RS.diverges expected actual with
    | None -> Ok None
    | Some diff -> Ok (Some (Divergence.of_diff ~expected ~actual diff)))
