open Storage
open Relalg
module L = Logical
module P = Dsl.Pattern

type generated = { query : L.t; trials : int }

(* Generic placeholders usually become scans (as in the paper: "we can
   instantiate each of the generic operators with Get operators");
   occasionally a filtered scan for variety. *)
let any_subtree (ctx : Arggen.ctx) : L.t option =
  let get = Arggen.fresh_get ctx in
  if Prng.chance ctx.g 0.2 then
    match Arggen.add_filter ctx get with Some t -> Some t | None -> Some get
  else Some get

let rec instantiate ctx (p : P.t) : L.t option =
  match p with
  | P.Any -> any_subtree ctx
  | P.Op (kind, kid_patterns) -> (
    let ( let* ) = Option.bind in
    match (kind, kid_patterns) with
    | L.KGet, [] -> Some (Arggen.fresh_get ctx)
    | L.KFilter, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_filter ctx c
    | L.KProject, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_project ctx c
    | L.KJoin jk, [ lp; rp ] ->
      let* l = instantiate ctx lp in
      let* r = instantiate ctx rp in
      Arggen.add_join ctx jk l r
    | L.KGroupBy, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_groupby ctx c
    | (L.KUnionAll | L.KUnion | L.KIntersect | L.KExcept), [ lp; rp ] ->
      (* Two generic branches: clone for guaranteed union compatibility.
         Structured branches: instantiate independently and align. *)
      let* l = instantiate ctx lp in
      let* r =
        match rp with
        | P.Any when Prng.chance ctx.g 0.8 -> Some (Arggen.refresh_labels l)
        | _ -> instantiate ctx rp
      in
      Arggen.add_setop ctx kind l r
    | L.KDistinct, [ kp ] ->
      let* c = instantiate ctx kp in
      Some (L.Distinct c)
    | L.KSort, [ kp ] ->
      let* c = instantiate ctx kp in
      Arggen.add_sort ctx c
    | L.KLimit, [ kp ] ->
      let* c = instantiate ctx kp in
      Some (L.Limit { count = 1 + Prng.int ctx.g 20; child = c })
    | _ -> None)

let compose p1 p2 =
  let substitutions base other =
    List.filter_map
      (fun i -> P.substitute_leaf base i other)
      (List.init (P.leaves base) Fun.id)
  in
  let roots =
    [ P.Op (L.KJoin L.Inner, [ p1; p2 ]);
      P.Op (L.KUnionAll, [ p1; p2 ]) ]
  in
  let candidates = substitutions p1 p2 @ substitutions p2 p1 @ roots in
  List.stable_sort (fun a b -> compare (P.size a) (P.size b)) candidates

let check fw query targets =
  match Framework.ruleset fw query with
  | Error _ -> false
  | Ok rs -> List.for_all (fun r -> Framework.SSet.mem r rs) targets

let finish ctx fw ~extra_ops ~targets ~trials query =
  let query = if extra_ops > 0 then Arggen.pad ctx query extra_ops else query in
  if check fw query targets then Some { query; trials } else None

(* Per-(method, target) generation telemetry: trials consumed, generation
   failures (trial budget exhausted) and wall time. Instantiation
   failures are counted at the call sites inside the trial loops. *)
type gen_instr = {
  trials_c : Obs.Metrics.counter;
  not_found_c : Obs.Metrics.counter;
  inst_fail_c : Obs.Metrics.counter;
  wall_ns : Obs.Metrics.histogram;
}

let gen_instr ~meth ~target =
  { trials_c = Obs.Metrics.counter ~label:target ("qgen." ^ meth ^ ".trials");
    not_found_c = Obs.Metrics.counter ~label:target ("qgen." ^ meth ^ ".not_found");
    inst_fail_c =
      Obs.Metrics.counter ~label:target ("qgen." ^ meth ^ ".instantiation_failures");
    wall_ns = Obs.Metrics.histogram ~label:target ("qgen." ^ meth ^ ".wall_ns") }

let instrumented ~meth ~target ~max_trials f =
  let instr = gen_instr ~meth ~target in
  Obs.Trace.with_span ("qgen." ^ meth)
    ~args:[ ("target", Obs.Json.String target) ]
    (fun () ->
      if not (Obs.Metrics.enabled ()) then f instr
      else begin
        let t0 = Obs.Clock.now_ns () in
        let result = f instr in
        Obs.Metrics.observe instr.wall_ns (Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()));
        (match result with
        | Some r -> Obs.Metrics.add instr.trials_c r.trials
        | None ->
          Obs.Metrics.add instr.trials_c max_trials;
          Obs.Metrics.incr instr.not_found_c);
        result
      end)

let for_rule ?(max_trials = 50) ?(extra_ops = 0) fw g rule_name =
  match Framework.pattern_of fw rule_name with
  | None -> None
  | Some pattern ->
    instrumented ~meth:"pattern" ~target:rule_name ~max_trials (fun instr ->
        let ctx = { Arggen.g; cat = Framework.catalog fw } in
        let rec loop trials =
          if trials >= max_trials then None
          else
            let trials = trials + 1 in
            match instantiate ctx pattern with
            | None ->
              Obs.Metrics.incr instr.inst_fail_c;
              loop trials
            | Some query -> (
              match finish ctx fw ~extra_ops ~targets:[ rule_name ] ~trials query with
              | Some g -> Some g
              | None -> loop trials)
        in
        loop 0)

let for_pair ?(max_trials = 60) ?(extra_ops = 0) fw g (r1, r2) =
  match (Framework.pattern_of fw r1, Framework.pattern_of fw r2) with
  | Some p1, Some p2 ->
    instrumented ~meth:"pair" ~target:(r1 ^ "+" ^ r2) ~max_trials (fun instr ->
        let ctx = { Arggen.g; cat = Framework.catalog fw } in
        let candidates = compose p1 p2 in
        let n = List.length candidates in
        let rec loop trials =
          if trials >= max_trials then None
          else
            (* Round-robin over composite patterns, smallest first. *)
            let pattern = List.nth candidates (trials mod n) in
            let trials = trials + 1 in
            match instantiate ctx pattern with
            | None ->
              Obs.Metrics.incr instr.inst_fail_c;
              loop trials
            | Some query -> (
              match finish ctx fw ~extra_ops ~targets:[ r1; r2 ] ~trials query with
              | Some g -> Some g
              | None -> loop trials)
        in
        loop 0)
  | _ -> None

let relevant_for_rule ?(max_trials = 80) ?(extra_ops = 0) fw g rule_name =
  match Framework.pattern_of fw rule_name with
  | None -> None
  | Some pattern ->
    instrumented ~meth:"relevant" ~target:rule_name ~max_trials (fun instr ->
        let ctx = { Arggen.g; cat = Framework.catalog fw } in
        let relevant query =
          match
            ( Framework.optimize fw query,
              Framework.optimize fw ~disabled:[ rule_name ] query )
          with
          | Ok on, Ok off -> not (Optimizer.Physical.equal on.plan off.plan)
          | _ -> false
        in
        let rec loop trials =
          if trials >= max_trials then None
          else
            let trials = trials + 1 in
            match instantiate ctx pattern with
            | None ->
              Obs.Metrics.incr instr.inst_fail_c;
              loop trials
            | Some query -> (
              match finish ctx fw ~extra_ops ~targets:[ rule_name ] ~trials query with
              | Some g when relevant g.query -> Some g
              | _ -> loop trials)
        in
        loop 0)

let random_for_rules ?(max_trials = 300) ?(min_ops = 2) ?(max_ops = 10) fw g
    targets =
  instrumented ~meth:"random" ~target:(String.concat "+" targets) ~max_trials
    (fun _ ->
      let ctx = { Arggen.g; cat = Framework.catalog fw } in
      let rec loop trials =
        if trials >= max_trials then None
        else
          let trials = trials + 1 in
          let query = Random_gen.generate ~min_ops ~max_ops ctx in
          if check fw query targets then Some { query; trials } else loop trials
      in
      loop 0)
