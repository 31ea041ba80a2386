module SSet = Optimizer.Engine.SSet

type t = {
  cat : Storage.Catalog.t;
  options : Optimizer.Engine.options;
  rule_list : Dsl.Rule.t list;
  invocations : int Atomic.t;
      (** atomic so one framework can be shared by parallel workers and
          still count every invocation exactly *)
}

let create ?(options = Optimizer.Engine.default_options)
    ?(rules = Optimizer.Rules.all) cat =
  { cat; options; rule_list = rules; invocations = Atomic.make 0 }

let catalog t = t.cat
let rules t = t.rule_list

let fingerprints t =
  List.map (fun (r : Dsl.Rule.t) -> (r.name, r.fingerprint)) t.rule_list

let with_matched = Dsl.Rule.collect_matched
let invocations t = Atomic.get t.invocations
let reset_invocations t = Atomic.set t.invocations 0

let with_disabled options disabled =
  { options with
    Optimizer.Engine.disabled =
      List.fold_left (fun s r -> SSet.add r s) options.Optimizer.Engine.disabled
        disabled }

(* One span per optimizer invocation, tagged with the disabled-rule set —
   the unit of measurement of the paper's Figure 14, now visible on a
   timeline. *)
let invoked t ~kind ~disabled f =
  let invocation = Atomic.fetch_and_add t.invocations 1 + 1 in
  Obs.Metrics.incr (Obs.Metrics.counter "framework.invocations");
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ("framework." ^ kind)
      ~args:
        [ ("invocation", Obs.Json.Int invocation);
          ("disabled", Obs.Json.List (List.map (fun r -> Obs.Json.String r) disabled)) ]
      f
  else f ()

let ruleset t q =
  invoked t ~kind:"ruleset" ~disabled:[] (fun () ->
      Optimizer.Engine.ruleset ~options:t.options ~rules:t.rule_list t.cat q)

let optimize t ?(disabled = []) q =
  invoked t ~kind:"optimize" ~disabled (fun () ->
      Optimizer.Engine.optimize
        ~options:(with_disabled t.options disabled)
        ~rules:t.rule_list t.cat q)

let cost t ?disabled q =
  Result.map (fun (r : Optimizer.Engine.result) -> r.cost) (optimize t ?disabled q)

let execute t ?disabled q =
  match optimize t ?disabled q with
  | Error e -> Error e
  | Ok r -> Executor.Exec.run t.cat r.plan

type shared = Optimizer.Engine.shared

let explore_shared t q =
  invoked t ~kind:"explore_shared" ~disabled:[] (fun () ->
      Optimizer.Engine.explore_shared ~options:t.options ~rules:t.rule_list t.cat
        q)

let shared_cost _t ?(disabled = []) sh =
  (* Not an optimizer invocation: this is the cheap filtered re-costing
     pass that shared exploration buys — the whole point is that it does
     not invoke the optimizer again. Tracked by its own counter. *)
  Obs.Metrics.incr (Obs.Metrics.counter "framework.shared_cost_passes");
  Optimizer.Engine.shared_cost sh
    ~disabled:(List.fold_left (fun s r -> SSet.add r s) SSet.empty disabled)

let pattern_of t name =
  List.find_map
    (fun (r : Dsl.Rule.t) ->
      if String.equal r.name name then
        (* Round-trip through the XML export, as an external tool would. *)
        match Dsl.Pattern.of_xml (Dsl.Pattern.to_xml r.pattern) with
        | Ok p -> Some p
        | Error _ -> None
      else None)
    t.rule_list
