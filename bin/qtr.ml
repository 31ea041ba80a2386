(* qtr — command-line interface to the rule-testing framework.

     qtr rules                         list transformation rules + patterns
     qtr optimize --sql "SELECT ..."   optimize a SQL query, show plan/RuleSet
     qtr generate --rule JoinCommute   emit a SQL test case for a rule
     qtr generate --pair A,B           ... for a rule pair
     qtr coverage --rules 30           Figure-8-style coverage table
     qtr compress --rules 10 -k 5      compare BASELINE/SMC/TOPK
     qtr validate --rules 10 -k 3      generate, compress, validate, triage
     qtr validate --inject SelectMerge --corpus corpus/
                                       ... with a buggy rule injected; minimize,
                                       dedup and persist the reproducers
     qtr replay --corpus corpus/       re-execute the regression corpus
     qtr discover --alphabet setops    mine/validate/rank/promote rewrite rules
     qtr delta --cache-dir DIR         preview the reusable incremental slice
     qtr stats --jobs 4                per-rule metrics table + span profile
     qtr bench-diff OLD NEW            regression-gate two bench result files

   Every subcommand accepts --trace FILE to record a Chrome trace-event
   JSONL trace (which also turns metrics collection on); most accept
   --json for machine-readable output. *)

open Cmdliner
open Storage

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  Arg.(value & opt float 0.002 & info [ "scale" ] ~docv:"SF" ~doc:"TPC-H scale factor.")

let seed_arg =
  Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let budget_arg =
  Arg.(
    value
    & opt int 400
    & info [ "budget" ] ~docv:"TREES" ~doc:"Optimizer exploration budget (trees).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSONL trace of the whole run to $(docv) and \
           enable metrics collection. Load it in chrome://tracing or Perfetto after \
           wrapping in a JSON array: jq -s . $(docv).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON on stdout.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (suite generation, the edge-cost \
           matrix, validation, reduction, replay). Defaults to the machine's \
           recommended domain count. Results are identical for every $(docv), \
           including 1.")

let pool_of jobs =
  match jobs with
  | None -> Par.Pool.create ()
  | Some j -> Par.Pool.create ~jobs:j ()

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent warm-start cache directory. Execution results computed this run \
           are spilled there (atomic, versioned writes) and reused by later runs over \
           an identical catalog; stale or corrupt entries are silently ignored. \
           Campaigns ($(b,compress), $(b,validate)) also maintain a suite manifest \
           there and run incrementally: the live rule-content fingerprints are diffed \
           against the last run's, the suite targets and edge-cost cells the diff \
           proves unaffected are replayed, and only the stale slice is recomputed — \
           byte-identical to a cold rebuild at any $(b,--jobs). Safe to delete at any \
           time.")

(* The disk tiers key everything by the catalog contents, so a cache
   directory can be shared across scales, seeds and machines: mismatched
   entries simply miss. *)
let setup_cache cache_dir cat =
  match cache_dir with
  | None -> None
  | Some dir ->
    let dc = Diskcache.create ~dir () in
    Executor.Cache.set_disk
      (Some (dc, Printf.sprintf "cat-%x" (Catalog.content_hash cat)));
    Some dc

(* A rule-name argument: exactly one of [names], checked at parse time so
   a typo is a one-line usage error (exit 124) instead of an uncaught
   exception, a fruitless search, or a silently ignored flag. *)
let rule_name names =
  let parse s =
    if List.mem s names then Ok s else Error (`Msg (Printf.sprintf "unknown rule '%s'" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let registry_rule = rule_name Optimizer.Rules.names

let simulate_edit_arg =
  Arg.(
    value
    & opt (some registry_rule) None
    & info [ "simulate-edit" ] ~docv:"RULE"
        ~doc:
          "Rebuild RULE (a name listed by $(b,qtr rules)) under a bumped version tag \
           (same name, pattern and behavior, new content fingerprint) before running — \
           the benchmark/CI stand-in for a behavior-preserving refactor of a rule's \
           implementation.")

(* Every generation/compression parameter that shapes the artifacts goes
   into the manifest key (the catalog is hashed in by [Incr.config_key]),
   so runs with different configurations never see each other's
   manifests. *)
let compress_desc ~seed ~n ~k ~pairs ~budget =
  Printf.sprintf "compress|seed=%d|n=%d|k=%d|pairs=%b|budget=%d|extra=2|gen=pattern"
    seed n k pairs budget

(* A campaign's suite and its one edge-cost service, shared by every
   algorithm the campaign runs. With a cache directory both go through
   [Core.Incr]: the manifest serves what the rule diff proves unaffected,
   and [save_manifest] folds the solved service into the next manifest
   once the last algorithm has run on it. *)
let campaign ~pool ~disk ~desc fw g ~targets ~k =
  let sess = Option.map (fun dc -> Core.Incr.start ~dc ~desc fw) disk in
  let suite =
    match sess with
    | Some s -> Core.Incr.generate ~extra_ops:2 ~pool s g ~targets ~k
    | None -> Core.Suite.generate ~extra_ops:2 ~pool fw g ~targets ~k
  in
  let warm_edges = Option.map Core.Incr.warm_edges sess in
  (sess, suite, Core.Compress.edge_costs ?warm_edges fw suite)

let save_manifest sess ec =
  Option.iter
    (fun s ->
      Core.Incr.note_matrix s ec;
      if not (Core.Incr.finish s) then Printf.eprintf "warning: manifest write failed\n")
    sess

let delta_report_json sess =
  let r = Core.Incr.result sess in
  Obs.Json.Obj
    [ ("cold", Obs.Json.Bool (Core.Incr.cold sess));
      ("full_rebuild", Obs.Json.Bool r.full_rebuild);
      ( "rules_changed",
        Obs.Json.List
          (List.map
             (fun (name, change) ->
               Obs.Json.Obj
                 [ ("rule", Obs.Json.String name);
                   ("change", Obs.Json.String change) ])
             r.rules_changed) );
      ("targets_reused", Obs.Json.Int r.targets_reusable);
      ("targets_total", Obs.Json.Int r.targets_total);
      ("entries_reused", Obs.Json.Int r.entries_reused);
      ("edges_reused", Obs.Json.Int r.edges_reusable);
      ("edges_recomputed", Obs.Json.Int r.edges_recomputed);
      ("edges_total", Obs.Json.Int r.edges_total) ]

let print_delta_summary sess =
  let r = Core.Incr.result sess in
  if Core.Incr.cold sess then
    print_endline "delta: no manifest found — cold rebuild, manifest written"
  else begin
    (match r.rules_changed with
    | [] -> print_endline "delta: rule registry unchanged since last manifest"
    | changed ->
      Printf.printf "delta: %d rule(s) drifted: %s\n" (List.length changed)
        (String.concat ", "
           (List.map (fun (n, c) -> Printf.sprintf "%s (%s)" n c) changed)));
    Printf.printf
      "delta: reused %d/%d targets (%d suite entries), %d/%d edges served warm, %d \
       recomputed%s\n"
      r.targets_reusable r.targets_total r.entries_reused r.edges_reusable
      r.edges_total r.edges_recomputed
      (if r.full_rebuild then " [pattern change or new rule: full rebuild]" else "")
  end

(* Telemetry is off unless asked for: tracing implies metrics, so the
   per-rule tables under `--json`/`qtr stats` line up with the spans. *)
let with_telemetry trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Metrics.set_enabled true;
    (try Obs.Trace.start path
     with Sys_error e ->
       Printf.eprintf "cannot open trace file: %s\n" e;
       exit 1);
    Fun.protect ~finally:Obs.Trace.stop f

let make_fw ?rules scale budget =
  let cat = Datagen.tpch ~scale () in
  let options = { Optimizer.Engine.default_options with max_trees = budget } in
  Core.Framework.create ~options ?rules cat

(* The telemetry block of [optimize], [stats] and [validate]: metrics and
   the span profiler are on for the whole run, and the report nests
   under one key beside the command's own fields. *)
let enable_report () =
  Obs.Metrics.set_enabled true;
  Obs.Profile.enable ()

let telemetry () = ("telemetry", Obs.Report.to_json (Obs.Report.snapshot ()))

(* ------------------------------------------------------------------ *)
(* qtr rules                                                           *)
(* ------------------------------------------------------------------ *)

let rules_cmd =
  let xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Print the full XML pattern document.")
  in
  let run xml =
    if xml then print_endline (Optimizer.Rules.all_patterns_xml ())
    else begin
      Printf.printf "%d exploration rules:\n" Optimizer.Rules.count;
      List.iter
        (fun (r : Dsl.Rule.t) ->
          Format.printf "  %-34s %a@." r.name Dsl.Pattern.pp r.pattern)
        Optimizer.Rules.all;
      Printf.printf "%d implementation rules:\n"
        (List.length Optimizer.Engine.implementation_rule_names);
      List.iter (Printf.printf "  %s\n") Optimizer.Engine.implementation_rule_names
    end
  in
  Cmd.v (Cmd.info "rules" ~doc:"List transformation rules and their patterns")
    Term.(const run $ xml)

(* ------------------------------------------------------------------ *)
(* qtr optimize                                                        *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let sql =
    Arg.(
      required
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL" ~doc:"Query in the framework's SQL dialect.")
  in
  let disabled =
    Arg.(
      value
      & opt_all
          (rule_name
             (Optimizer.Rules.names @ Optimizer.Engine.implementation_rule_names))
          []
      & info [ "disable" ] ~docv:"RULE"
          ~doc:"Disable a rule listed by $(b,qtr rules) (repeatable).")
  in
  let run scale budget sql disabled trace json =
    with_telemetry trace @@ fun () ->
    if json then enable_report ();
    let fw = make_fw scale budget in
    let cat = Core.Framework.catalog fw in
    match Relalg.Sql_parser.parse cat sql with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1
    | Ok tree -> (
      if not json then Format.printf "Logical tree:@.%a@.@." Relalg.Logical.pp tree;
      match Core.Framework.optimize fw ~disabled tree with
      | Error e ->
        Printf.eprintf "optimize: %s\n" e;
        exit 1
      | Ok r ->
        let execution = Executor.Exec.run cat r.plan in
        if json then begin
          let string_set s =
            Obs.Json.List
              (List.map (fun n -> Obs.Json.String n) (Core.Framework.SSet.elements s))
          in
          let doc =
            Obs.Json.Obj
              [ ("sql", Obs.Json.String sql);
                ("cost", Obs.Json.Float r.cost);
                ("trees_explored", Obs.Json.Int r.trees_explored);
                ("budget_truncated", Obs.Json.Bool r.budget_truncated);
                ("ruleset", string_set r.exercised);
                ("impl_ruleset", string_set r.impl_exercised);
                ( "plan",
                  Obs.Json.String
                    (Format.asprintf "%a" Optimizer.Physical.pp r.plan) );
                ( "rows",
                  match execution with
                  | Ok res -> Obs.Json.Int (Executor.Resultset.row_count res)
                  | Error _ -> Obs.Json.Null );
                ( "execution_error",
                  match execution with
                  | Ok _ -> Obs.Json.Null
                  | Error e -> Obs.Json.String e );
                telemetry () ]
          in
          print_endline (Obs.Json.to_string doc)
        end
        else begin
          Format.printf "Plan (cost %.1f, %d trees explored):@.%a@.@." r.cost
            r.trees_explored Optimizer.Physical.pp r.plan;
          if r.budget_truncated then
            Format.printf
              "warning: exploration budget exhausted at %d trees — RuleSet and plan \
               may be incomplete; raise --budget@."
              r.trees_explored;
          Format.printf "RuleSet: %s@."
            (String.concat ", " (Core.Framework.SSet.elements r.exercised));
          match execution with
          | Ok res -> Format.printf "@.%a@." Executor.Resultset.pp res
          | Error e -> Printf.eprintf "execution: %s\n" e
        end)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Parse, optimize and execute a SQL query")
    Term.(const run $ scale_arg $ budget_arg $ sql $ disabled $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr generate                                                        *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let rule =
    Arg.(
      value & opt (some registry_rule) None & info [ "rule" ] ~docv:"RULE"
          ~doc:"Target rule (a name listed by $(b,qtr rules)).")
  in
  let pair =
    Arg.(
      value
      & opt (some (pair ~sep:',' registry_rule registry_rule)) None
      & info [ "pair" ] ~docv:"R1,R2"
          ~doc:"Target rule pair (names listed by $(b,qtr rules)).")
  in
  let extra =
    Arg.(
      value & opt int 0
      & info [ "extra-ops" ] ~docv:"N" ~doc:"Pad the query with N random operators.")
  in
  let relevant =
    Arg.(
      value & flag
      & info [ "relevant" ]
          ~doc:
            "Require the rule to be relevant (disabling it changes the chosen plan) — \
             the paper's §7 variant. Only with --rule.")
  in
  let run scale budget seed rule pair extra relevant trace =
    with_telemetry trace @@ fun () ->
    let fw = make_fw scale budget in
    let g = Prng.create seed in
    let result =
      match (rule, pair) with
      | Some r, None ->
        if relevant then
          Core.Query_gen.relevant_for_rule ~max_trials:100 ~extra_ops:extra fw g r
        else Core.Query_gen.for_rule ~max_trials:100 ~extra_ops:extra fw g r
      | None, Some (a, b) ->
        Core.Query_gen.for_pair ~max_trials:120 ~extra_ops:extra fw g (a, b)
      | _ ->
        Printf.eprintf "exactly one of --rule / --pair is required\n";
        exit 2
    in
    match result with
    | None ->
      Printf.eprintf "no query found within the trial budget\n";
      exit 1
    | Some { query; trials } ->
      let cat = Core.Framework.catalog fw in
      Format.printf "-- found in %d trial(s), %d operators@." trials
        (Relalg.Logical.size query);
      Format.printf "%s@.@." (Relalg.Sql_print.to_sql_pretty cat query);
      Format.printf "Logical tree:@.%a@." Relalg.Logical.pp query
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a SQL test case exercising a rule or rule pair")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ rule $ pair $ extra $ relevant
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* qtr coverage                                                        *)
(* ------------------------------------------------------------------ *)

let n_rules_arg =
  Arg.(
    value & opt int 30
    & info [ "rules" ] ~docv:"N" ~doc:"Number of rules (prefix of the registry).")

let coverage_cmd =
  let run scale budget seed n jobs trace json =
    with_telemetry trace @@ fun () ->
    let pool = pool_of jobs in
    let fw = make_fw scale budget in
    let rules = List.filteri (fun i _ -> i < n) Optimizer.Rules.names in
    (* Each rule is one task with its own seed and alias range, so the
       trial counts are independent of the job count. *)
    let rows =
      Par.Pool.map_list pool
        (fun (i, name) ->
          Relalg.Ident.set_fresh (i * 100_000);
          let g = Prng.create (seed + i) in
          let r = Core.Query_gen.random_for_rules ~max_trials:100 fw g [ name ] in
          let p = Core.Query_gen.for_rule ~max_trials:100 fw g name in
          (name, r, p))
        (List.mapi (fun i name -> (i, name)) rules)
    in
    if not json then begin
      Printf.printf "%-34s %8s %9s\n" "rule" "RANDOM" "PATTERN";
      List.iter
        (fun (name, r, p) ->
          let show cap = function
            | Some (x : Core.Query_gen.generated) -> string_of_int x.trials
            | None -> cap
          in
          Printf.printf "%-34s %8s %9s\n%!" name (show ">100" r) (show "FAIL" p))
        rows
    end;
    if json then begin
      let trials = function
        | Some (x : Core.Query_gen.generated) -> Obs.Json.Int x.trials
        | None -> Obs.Json.Null
      in
      let doc =
        Obs.Json.Obj
          [ ( "rules",
              Obs.Json.List
                (List.map
                   (fun (name, r, p) ->
                     Obs.Json.Obj
                       [ ("rule", Obs.Json.String name);
                         ("random_trials", trials r);
                         ("pattern_trials", trials p) ])
                   rows) );
            ("cap", Obs.Json.Int 100) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Rule-coverage trials, RANDOM vs PATTERN (Figure 8)")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ jobs_arg $ trace_arg
      $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr compress                                                        *)
(* ------------------------------------------------------------------ *)

let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Test-suite size per rule.")

let pairs_flag =
  Arg.(value & flag & info [ "pairs" ] ~doc:"Target rule pairs instead of singletons.")

let compress_cmd =
  let run scale budget seed n k pairs sim jobs cache_dir trace json =
    with_telemetry trace @@ fun () ->
    let pool = pool_of jobs in
    let rules_override = Option.map (fun r -> Optimizer.Rules.simulate_edit r) sim in
    let fw = make_fw ?rules:rules_override scale budget in
    let disk = setup_cache cache_dir (Core.Framework.catalog fw) in
    let g = Prng.create seed in
    let rules = List.filteri (fun i _ -> i < n) Optimizer.Rules.names in
    let targets =
      if pairs then Core.Suite.all_pairs rules
      else List.map (fun r -> Core.Suite.Single r) rules
    in
    if not json then
      Printf.printf "generating suite: %d targets x k=%d...\n%!" (List.length targets) k;
    let sess, suite, ec =
      campaign ~pool ~disk ~desc:(compress_desc ~seed ~n ~k ~pairs ~budget) fw g
        ~targets ~k
    in
    if not json then
      Printf.printf "%d distinct queries (shortfalls %d)\n%!"
        (Array.length suite.entries)
        (List.length (Core.Suite.shortfall suite));
    let baseline = Core.Compress.baseline ~pool ~ec fw suite in
    let smc = Core.Compress.smc ~pool ~ec fw suite in
    let topk = Core.Compress.topk ~pool ~ec fw suite in
    let mono = Core.Compress.topk ~exploit_monotonicity:true ~ec fw suite in
    save_manifest sess ec;
    let algos =
      [ ("BASELINE", baseline); ("SMC", smc); ("TOPK", topk); ("TOPK+mono", mono) ]
    in
    if json then begin
      let doc =
        Obs.Json.Obj
          ([ ("targets", Obs.Json.Int (List.length targets));
             ("k", Obs.Json.Int k);
             ("jobs", Obs.Json.Int (Par.Pool.jobs pool));
             ("distinct_queries", Obs.Json.Int (Array.length suite.entries));
             ("shortfalls", Obs.Json.Int (List.length (Core.Suite.shortfall suite))) ]
          @ Option.to_list (Option.map (fun s -> ("delta", delta_report_json s)) sess)
          @ [ ( "algorithms",
              Obs.Json.List
                (List.map
                   (fun (name, (sol : Core.Compress.solution)) ->
                     Obs.Json.Obj
                       [ ("name", Obs.Json.String name);
                         ("total_cost", Obs.Json.Float sol.total_cost);
                         ("invocations", Obs.Json.Int sol.invocations);
                         ( "under_covered",
                           Obs.Json.List
                             (List.map
                                (fun (t, d) ->
                                  Obs.Json.Obj
                                    [ ( "target",
                                        Obs.Json.String (Core.Suite.target_name t) );
                                      ("deficit", Obs.Json.Int d) ])
                                sol.under_covered) ) ])
                   algos) ) ])
      in
      print_endline (Obs.Json.to_string doc)
    end
    else begin
      Option.iter print_delta_summary sess;
      List.iter
        (fun (name, (sol : Core.Compress.solution)) ->
          Printf.printf "  %-10s cost %14.1f  invocations %5d\n%!" name sol.total_cost
            sol.invocations;
          List.iter
            (fun (t, d) ->
              Printf.printf "             under-covered: %s (missing %d of k=%d)\n%!"
                (Core.Suite.target_name t) d k)
            sol.under_covered)
        algos
    end
  in
  Cmd.v
    (Cmd.info "compress" ~doc:"Test-suite compression: BASELINE vs SMC vs TOPK")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ k_arg $ pairs_flag
      $ simulate_edit_arg $ jobs_arg $ cache_dir_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr validate                                                        *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let inject =
    Arg.(
      value
      & opt (some (rule_name Core.Faults.names)) None
      & info [ "inject" ] ~docv:"RULE"
          ~doc:
            ("Inject the buggy variant of RULE and target RULE alone; RULE is one of "
            ^ String.concat ", " Core.Faults.names ^ "."))
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist every minimized reproducer (SQL + JSON metadata) into $(docv), \
             one case per bug signature; re-execute later with $(b,qtr replay).")
  in
  let max_checks =
    Arg.(
      value & opt int 400
      & info [ "max-checks" ] ~docv:"N"
          ~doc:"Oracle-evaluation budget per bug during delta reduction.")
  in
  let run scale budget seed n k inject corpus max_checks jobs cache_dir trace json =
    with_telemetry trace @@ fun () ->
    if json then enable_report ();
    let t0 = Obs.Clock.now_ns () in
    let pool = pool_of jobs in
    let rules_override = Option.map Core.Faults.inject inject in
    let fw = make_fw ?rules:rules_override scale budget in
    let disk = setup_cache cache_dir (Core.Framework.catalog fw) in
    let g = Prng.create seed in
    let rules =
      match inject with
      | Some victim -> [ victim ]
      | None -> List.filteri (fun i _ -> i < n) Optimizer.Rules.names
    in
    let targets = List.map (fun r -> Core.Suite.Single r) rules in
    (* An injected fault changes the victim's fingerprint (its variant
       carries a distinct version tag), so a validate after a clean one
       over the same cache dir regenerates exactly the slices the fault
       can reach. *)
    let desc =
      Printf.sprintf "validate|seed=%d|n=%d|k=%d|inject=%s|budget=%d" seed n k
        (Option.value inject ~default:"-")
        budget
    in
    if not json then
      Printf.printf "generating suite: %d rules x k=%d...\n%!" (List.length targets) k;
    let sess, suite, ec = campaign ~pool ~disk ~desc fw g ~targets ~k in
    let baseline = Core.Compress.baseline ~pool ~ec fw suite in
    let sol = Core.Compress.topk ~pool ~ec fw suite in
    save_manifest sess ec;
    if not json then begin
      Option.iter print_delta_summary sess;
      List.iter
        (fun (t, d) ->
          Printf.printf "warning: target %s under-covered (missing %d of k=%d)\n%!"
            (Core.Suite.target_name t) d k)
        sol.under_covered
    end;
    let report = Core.Correctness.run ~pool fw suite sol in
    if not json then Format.printf "%a@." Core.Correctness.pp_report report;
    let triaged = Triage.Pipeline.triage ~max_checks ~pool fw report in
    let written =
      Option.map
        (fun dir ->
          match
            Triage.Pipeline.save_corpus ~dir ~catalog:(Triage.Corpus.Tpch scale) ~budget
              ?fault:inject (Core.Framework.catalog fw) triaged
          with
          | Ok paths -> (dir, List.length paths)
          | Error e ->
            Printf.eprintf "%s\n" e;
            exit 1)
        corpus
    in
    let wall_s = Obs.Clock.ns_between t0 (Obs.Clock.now_ns ()) /. 1e9 in
    if json then begin
      let shortfalls = List.length (Core.Suite.shortfall suite) in
      let ratio =
        if baseline.total_cost <= 0.0 then 1.0
        else sol.total_cost /. baseline.total_cost
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              ([ ("targets", Obs.Json.Int (List.length targets));
                 ("k", Obs.Json.Int k);
                 ("jobs", Obs.Json.Int (Par.Pool.jobs pool));
                 ( "fault",
                   match inject with
                   | None -> Obs.Json.Null
                   | Some r -> Obs.Json.String r );
                 ("wall_seconds", Obs.Json.Float wall_s);
                 ( "coverage",
                   Obs.Json.Obj
                     [ ("fully_covered", Obs.Json.Int (List.length targets - shortfalls));
                       ("shortfalls", Obs.Json.Int shortfalls);
                       ("distinct_queries", Obs.Json.Int (Array.length suite.entries)) ]
                 );
                 ( "compression",
                   Obs.Json.Obj
                     [ ("baseline_cost", Obs.Json.Float baseline.total_cost);
                       ("topk_cost", Obs.Json.Float sol.total_cost);
                       ("cost_ratio", Obs.Json.Float ratio);
                       ("invocations", Obs.Json.Int sol.invocations);
                       ("under_covered", Obs.Json.Int (List.length sol.under_covered)) ]
                 );
                 ( "validation",
                   Obs.Json.Obj
                     [ ("pairs_checked", Obs.Json.Int report.pairs_checked);
                       ("executions", Obs.Json.Int report.executions);
                       ("skipped_identical", Obs.Json.Int report.skipped_identical);
                       ("bugs", Obs.Json.Int (List.length report.bugs));
                       ("errors", Obs.Json.Int (List.length report.errors)) ] );
                 ("triage", Triage.Pipeline.report_json triaged) ]
              @ Option.to_list (Option.map (fun s -> ("delta", delta_report_json s)) sess)
              @ [ telemetry () ])))
    end
    else begin
      if report.bugs <> [] then Format.printf "%a@." Triage.Pipeline.pp_report triaged;
      Option.iter
        (fun (dir, n) -> Printf.printf "wrote %d corpus case(s) to %s\n%!" n dir)
        written
    end;
    if report.bugs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "The correctness campaign: generate a suite, compress it with TOPK, execute \
          Plan(q) against Plan(q, not r), then delta-reduce every bug to a minimal \
          reproducer, dedup by signature, and optionally persist the regression \
          corpus; exits 1 when any bug is found")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ k_arg $ inject
      $ corpus $ max_checks $ jobs_arg $ cache_dir_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr delta                                                           *)
(* ------------------------------------------------------------------ *)

let delta_cmd =
  let run scale budget seed n k pairs sim cache_dir trace json =
    with_telemetry trace @@ fun () ->
    let dir =
      match cache_dir with
      | Some d -> d
      | None ->
        Printf.eprintf "qtr: delta requires --cache-dir\n";
        exit 1
    in
    let rules_override = Option.map (fun r -> Optimizer.Rules.simulate_edit r) sim in
    let fw = make_fw ?rules:rules_override scale budget in
    let dc = Diskcache.create ~dir () in
    let sess =
      Core.Incr.start ~dc ~desc:(compress_desc ~seed ~n ~k ~pairs ~budget) fw
    in
    let p = Core.Incr.preview sess in
    if json then begin
      let doc =
        Obs.Json.Obj
          [ ("manifest_found", Obs.Json.Bool p.manifest_found);
            ("rules_total", Obs.Json.Int p.rules_total);
            ( "rules_changed",
              Obs.Json.List
                (List.map
                   (fun (name, change) ->
                     Obs.Json.Obj
                       [ ("rule", Obs.Json.String name);
                         ("change", Obs.Json.String change) ])
                   p.rules_changed) );
            ("full_rebuild", Obs.Json.Bool p.full_rebuild);
            ("targets_reusable", Obs.Json.Int p.targets_reusable);
            ("targets_total", Obs.Json.Int p.targets_total);
            ("edges_reusable", Obs.Json.Int p.edges_reusable);
            ("edges_total", Obs.Json.Int p.edges_total) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
    else if not p.manifest_found then
      print_endline
        "no manifest for this configuration — the next --cache-dir run rebuilds \
         cold and writes one"
    else begin
      Printf.printf "manifest: %d rules recorded\n" p.rules_total;
      (match p.rules_changed with
      | [] -> print_endline "registry unchanged: every recorded artifact is reusable"
      | changed ->
        List.iter
          (fun (name, change) -> Printf.printf "  %-34s %s\n" name change)
          changed);
      Printf.printf
        "reusable now: %d/%d suite targets, %d/%d edge-cost cells%s\n"
        p.targets_reusable p.targets_total p.edges_reusable p.edges_total
        (if p.full_rebuild then
           " (pattern change or new rule forces a full rebuild)"
         else "")
    end
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Diff the live rule-content fingerprints against the --cache-dir manifest \
          and report what a compress run over it would reuse, without running anything")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ n_rules_arg $ k_arg $ pairs_flag
      $ simulate_edit_arg $ cache_dir_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr replay                                                          *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let corpus =
    Arg.(
      required
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus directory written by $(b,qtr validate --corpus).")
  in
  let reinject =
    Arg.(
      value & flag
      & info [ "reinject" ]
          ~doc:
            "Re-inject the fault recorded in each case's metadata before replaying — \
             the corpus self-check: every case must reproduce its divergence, and the \
             exit status is non-zero if any does not. Without this flag the current \
             rule registry is used and any $(i,reproduced) divergence (a resurfaced \
             regression) makes the exit status non-zero.")
  in
  let budget_override =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"TREES"
          ~doc:"Override the per-case recorded exploration budget.")
  in
  let run corpus reinject budget jobs trace json =
    with_telemetry trace @@ fun () ->
    let pool = pool_of jobs in
    match Triage.Pipeline.replay ~reinject ?budget ~pool ~dir:corpus () with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
    | Ok results ->
      let reproduced =
        List.length
          (List.filter
             (fun (r : Triage.Pipeline.replayed) ->
               match r.outcome with Triage.Pipeline.Reproduced _ -> true | _ -> false)
             results)
      in
      if json then print_endline (Obs.Json.to_string (Triage.Pipeline.replay_json results))
      else begin
        List.iter
          (fun r -> Format.printf "%a@." Triage.Pipeline.pp_replayed r)
          results;
        Printf.printf "%d/%d case(s) reproduced their divergence\n%!" reproduced
          (List.length results)
      end;
      (* Differential (discovery) cases carry their own right-hand side:
         the divergence is intrinsic to the query pair, not to the rule
         registry, so they must reproduce in BOTH modes — a clean one
         means the counterexample went stale. Rule-regression cases keep
         the original polarity: reproduce under --reinject, stay clean
         against the current registry. *)
      let differential, regression =
        List.partition
          (fun (r : Triage.Pipeline.replayed) -> r.case.meta.rhs_sql <> None)
          results
      in
      let reproduced_of l =
        List.length
          (List.filter
             (fun (r : Triage.Pipeline.replayed) ->
               match r.outcome with Triage.Pipeline.Reproduced _ -> true | _ -> false)
             l)
      in
      if reinject then begin
        if reproduced < List.length results then exit 1
      end
      else if
        reproduced_of regression > 0
        || reproduced_of differential < List.length differential
      then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a persisted regression corpus from disk (regression gate by \
          default; corpus self-check with --reinject)")
    Term.(const run $ corpus $ reinject $ budget_override $ jobs_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr stats                                                           *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let queries_arg =
    Arg.(
      value & opt int 25
      & info [ "queries" ] ~docv:"N"
          ~doc:"Number of stochastic TPC-H queries to optimize for the sample.")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Also write folded call stacks (one $(i,path;to;span self_us) line per \
             distinct span path) to $(docv) — the input format of flamegraph.pl and \
             speedscope.")
  in
  let by_domain =
    Arg.(
      value & flag
      & info [ "by-domain" ] ~doc:"Also print a per-domain breakdown of the profile.")
  in
  let sort_arg =
    let options =
      [ ("attempts", `Attempts); ("rewrites", `Rewrites); ("fired", `Fired);
        ("rate", `Rate); ("mean", `Mean); ("total", `Total) ]
    in
    Arg.(
      value
      & opt (enum options) `Attempts
      & info [ "sort" ] ~docv:"COLUMN"
          ~doc:"Sort column: $(b,attempts), $(b,rewrites), $(b,fired), $(b,rate), \
                $(b,mean) (latency) or $(b,total) (time).")
  in
  let run scale budget seed queries sort jobs folded by_domain cache_dir trace json =
    (* Opened before any work, so an unwritable path fails fast instead
       of after the whole workload. *)
    let folded_oc =
      Option.map
        (fun path ->
          try (path, open_out path)
          with Sys_error e ->
            Printf.eprintf "cannot open folded file: %s\n" e;
            exit 1)
        folded
    in
    with_telemetry trace @@ fun () ->
    enable_report ();
    let pool = pool_of jobs in
    let fw = make_fw scale budget in
    let cat = Core.Framework.catalog fw in
    let dc_opt = setup_cache cache_dir cat in
    let ctx = { Core.Arggen.g = Prng.create seed; cat } in
    (* Queries are generated sequentially (one PRNG stream), then
       optimized as one task each with its own fresh-name range — the
       per-rule table is identical for every --jobs, and a parallel run
       additionally populates the pool-utilization lines below. *)
    let qs =
      Array.init queries (fun _ -> Core.Random_gen.generate ~min_ops:3 ~max_ops:8 ctx)
    in
    let outcomes =
      Par.Pool.map_array pool
        (fun (i, q) ->
          Relalg.Ident.set_fresh ((i + 1) * 100_000);
          Core.Framework.optimize fw q)
        (Array.mapi (fun i q -> (i, q)) qs)
    in
    let exhausted = ref 0 in
    let plans = ref [] in
    Array.iter
      (function
        | Ok r ->
          plans := r.Optimizer.Engine.plan :: !plans;
          if r.Optimizer.Engine.budget_truncated then incr exhausted
        | Error _ -> ())
      outcomes;
    (* Execute the winning plans twice: the second pass is served by the
       plan-fingerprint result cache, so the executor line below reports
       a live compile latency, throughput, and hit rate. *)
    List.iter (fun p -> ignore (Executor.Cache.run ~site:"stats" cat p)) (List.rev !plans);
    List.iter (fun p -> ignore (Executor.Cache.run ~site:"stats" cat p)) (List.rev !plans);
    Option.iter
      (fun (path, oc) ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Obs.Profile.write_folded oc);
        if not json then Printf.printf "folded stacks written to %s\n" path)
      folded_oc;
    if json then print_endline (Obs.Json.to_string (Obs.Json.Obj [ telemetry () ]))
    else begin
      let hist_of rule = Obs.Metrics.histogram ~label:rule "optimizer.rule.match_ns" in
      let rows =
        List.map
          (fun (rule, values) ->
            match values with
            | [ a; r; f ] ->
              let cell = Obs.Report.counter_cell in
              let attempts = cell a and rewrites = cell r and fired = cell f in
              let h = hist_of rule in
              let snap = Obs.Metrics.hist_snapshot h in
              let rate =
                if attempts = 0 then 0.0
                else 100.0 *. float_of_int rewrites /. float_of_int attempts
              in
              ( rule, attempts, rewrites, fired, rate,
                Obs.Clock.ns_to_us (Obs.Metrics.hist_mean h),
                Obs.Clock.ns_to_us (Obs.Metrics.hist_quantile h 0.95),
                Obs.Clock.ns_to_ms snap.sum )
            | _ -> (rule, 0, 0, 0, 0.0, 0.0, 0.0, 0.0))
          (Obs.Report.label_table
             [ "optimizer.rule.attempts"; "optimizer.rule.rewrites";
               "optimizer.rule.fired" ])
      in
      let key (_, a, r, fired, rate, mean, _, total) =
        match sort with
        | `Attempts -> float_of_int a
        | `Rewrites -> float_of_int r
        | `Fired -> float_of_int fired
        | `Rate -> rate
        | `Mean -> mean
        | `Total -> total
      in
      let rows = List.sort (fun x y -> compare (key y) (key x)) rows in
      Printf.printf "%d stochastic TPC-H queries optimized (scale %g, budget %d)\n\n"
        queries scale budget;
      Printf.printf "%-34s %9s %9s %9s %6s %9s %9s %9s\n" "rule" "attempts"
        "rewrites" "fired" "hit%" "mean_us" "p95_us" "total_ms";
      print_endline (String.make 100 '-');
      List.iter
        (fun (rule, a, r, f, rate, mean, p95, total) ->
          Printf.printf "%-34s %9d %9d %9d %5.1f%% %9.2f %9.2f %9.2f\n" rule a r f
            rate mean p95 total)
        rows;
      print_endline (String.make 100 '-');
      let hits = Obs.Metrics.counter_total "optimizer.memo.hits" in
      let misses = Obs.Metrics.counter_total "optimizer.memo.misses" in
      let rate h m =
        if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
      in
      let rw_hits = Obs.Metrics.counter_total "optimizer.rewrite_memo.hits" in
      let rw_misses = Obs.Metrics.counter_total "optimizer.rewrite_memo.misses" in
      Printf.printf
        "trees explored %d | plan memo hit rate %.1f%% (%d/%d) | budget exhausted \
         on %d/%d queries | optimizer invocations %d\n"
        (Obs.Metrics.counter_total "optimizer.explore.trees")
        (rate hits misses) hits (hits + misses) !exhausted queries
        (Core.Framework.invocations fw);
      Printf.printf
        "hashcons: %d live nodes (%d interned, %d reused) | rewrite memo hit rate \
         %.1f%% (%d/%d)\n"
        (Relalg.Hashcons.live_nodes ())
        (Relalg.Hashcons.misses ())
        (Relalg.Hashcons.hits ())
        (rate rw_hits rw_misses) rw_hits (rw_hits + rw_misses);
      let ex_hits = Obs.Metrics.counter_total "executor.result_cache.hits" in
      let ex_misses = Obs.Metrics.counter_total "executor.result_cache.misses" in
      (* Mean throughput over every (non-cached) execution, not the
         last run's gauge — a final empty result would read as 0. *)
      let exec_ns =
        (Obs.Metrics.hist_snapshot
           (Obs.Metrics.histogram "executor.exec_ns")).sum
      in
      let rows_per_sec =
        if exec_ns <= 0.0 then 0.0
        else float_of_int (Obs.Metrics.counter_total "executor.rows") *. 1e9 /. exec_ns
      in
      Printf.printf
        "executor: mean plan compile %.2f us | %.0f result rows/s | result \
         cache hit rate %.1f%% (%d/%d)\n"
        (Obs.Clock.ns_to_us
           (Obs.Metrics.hist_mean (Obs.Metrics.histogram "executor.compile_ns")))
        rows_per_sec (rate ex_hits ex_misses) ex_hits (ex_hits + ex_misses);
      Format.printf "@.%a%!" (Obs.Report.pp ~by_domain) (Obs.Report.snapshot ());
      (* Rule-content identity: what incremental maintenance diffs. The
         drift column compares against the most recently written
         manifest in the cache directory, whatever configuration wrote
         it — registry drift is configuration-independent. *)
      let infos = Core.Incr.rules_info fw in
      let manifest =
        Option.bind dc_opt (fun dc ->
            match List.rev (Manifest.index dc) with
            | (key, _) :: _ -> Manifest.load dc ~key
            | [] -> None)
      in
      let changes =
        match manifest with Some m -> Manifest.diff m ~rules:infos | None -> []
      in
      Printf.printf "\nrule registry (%d rules)%s\n" (List.length infos)
        (match manifest with
        | Some _ -> " vs latest cache manifest:"
        | None -> " (no manifest in cache; drift unknown):");
      Printf.printf "%-34s %-14s %-8s %s\n" "rule" "fingerprint" "source" "drift";
      List.iter
        (fun (ri : Manifest.rule_info) ->
          Printf.printf "%-34s %-14s %-8s %s\n" ri.name
            (String.sub ri.fingerprint 0 12)
            ri.source
            (match List.assoc_opt ri.name changes with
            | Some c -> Manifest.change_to_string c
            | None -> if manifest = None then "-" else "no"))
        infos;
      List.iter
        (fun (name, c) ->
          if c = Manifest.Removed then
            Printf.printf "%-34s %-14s %-8s removed\n" name "-" "-")
        changes
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Optimize and execute a stochastic TPC-H workload with metrics and the \
          in-process span profiler on, and print a sorted per-rule \
          attempt/success/latency table followed by self/total time, call counts \
          and percentiles per span")
    Term.(
      const run $ scale_arg $ budget_arg $ seed_arg $ queries_arg $ sort_arg $ jobs_arg
      $ folded $ by_domain $ cache_dir_arg $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr bench-diff                                                      *)
(* ------------------------------------------------------------------ *)

let benchdiff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench --json result file.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench --json result file.")
  in
  let slack_arg =
    Arg.(
      value & opt float 1.0
      & info [ "slack" ] ~docv:"X"
          ~doc:
            "Multiply every numeric threshold by $(docv); correctness flags stay \
             zero-tolerance. CI compares runs from different machines with a large \
             slack so only catastrophic numeric changes (or any flag flip) fire.")
  in
  let load path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.of_string s with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2
  in
  let run old_path new_path slack json =
    let old_doc = load old_path in
    let new_doc = load new_path in
    let findings = Obs.Benchcmp.compare_results ~slack ~old_doc ~new_doc () in
    let regressions = Obs.Benchcmp.regressions findings in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("old", Obs.Json.String old_path);
                ("new", Obs.Json.String new_path);
                ("slack", Obs.Json.Float slack);
                ("findings", Obs.Benchcmp.findings_json findings);
                ("regressions", Obs.Json.Int (List.length regressions)) ]))
    else begin
      List.iter (fun f -> Format.printf "%a@." Obs.Benchcmp.pp_finding f) findings;
      let count st =
        List.length
          (List.filter (fun (f : Obs.Benchcmp.finding) -> f.status = st) findings)
      in
      Printf.printf
        "%d metric(s) compared: %d passed, %d improved, %d new, %d regressed\n"
        (List.length findings) (count Obs.Benchcmp.Passed)
        (count Obs.Benchcmp.Improved)
        (count Obs.Benchcmp.Missing_old)
        (List.length regressions)
    end;
    if regressions <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench --json result files metric by metric against regression \
          thresholds; exit 1 when any gated metric regressed")
    Term.(const run $ old_arg $ new_arg $ slack_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr discover                                                        *)
(* ------------------------------------------------------------------ *)

let discover_cmd =
  let alphabet_arg =
    let parse s =
      match Discovery.Template.alphabet_of_string s with
      | Ok a -> Ok a
      | Error e -> Error (`Msg e)
    in
    let print fmt a = Format.fprintf fmt "%s" (Discovery.Template.alphabet_name a) in
    Arg.(
      value
      & opt (conv (parse, print)) Discovery.Template.Setops
      & info [ "alphabet" ] ~docv:"SET"
          ~doc:
            "Operator alphabet for template enumeration: $(b,basic) (filter, join, \
             distinct), $(b,setops) (+ union all, union) or $(b,full) (+ intersect, \
             except).")
  in
  let max_nodes_arg =
    Arg.(
      value & opt int 2
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Per-side operator budget for candidate templates.")
  in
  let trials_arg =
    Arg.(
      value & opt int Discovery.Validate.default_params.trials
      & info [ "trials" ] ~docv:"N"
          ~doc:"Differential instantiation attempts per candidate.")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Survivors promoted into optimizer rules and pushed through the \
                generate/compress/validate pipeline.")
  in
  let k_arg =
    Arg.(
      value & opt int 2
      & info [ "k" ] ~docv:"K"
          ~doc:"Queries per target in the ranking and promotion suites.")
  in
  let rank_budget_arg =
    Arg.(
      value & opt int 128
      & info [ "rank-budget" ] ~docv:"TREES"
          ~doc:
            "Exploration budget for the ranking/promotion frameworks (their \
             registries carry every surviving candidate).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist minimized counterexamples of refuted candidates there \
             (replayable with $(b,qtr replay)).")
  in
  let run scale seed alphabet max_nodes trials top k rank_budget corpus jobs cache_dir
      trace json =
    with_telemetry trace @@ fun () ->
    (* Firing counters feed the ranker, so metrics are always on here
       (same stance as `qtr stats`). *)
    Obs.Metrics.set_enabled true;
    let pool = pool_of jobs in
    let config =
      { Discovery.Driver.default_config with
        alphabet;
        max_nodes;
        params = { Discovery.Validate.default_params with seed; trials };
        suite_k = k;
        top_k = top;
        rank_budget;
        corpus_dir = corpus;
        catalog = Triage.Corpus.Tpch scale }
    in
    let disk =
      setup_cache cache_dir (Triage.Corpus.catalog_of_spec config.catalog)
    in
    let report = Discovery.Driver.run ~pool ?disk config in
    if json then
      print_endline (Obs.Json.to_string (Discovery.Driver.report_json report))
    else Format.printf "%a@." Discovery.Driver.pp_report report;
    if report.candidates = 0 then begin
      (* An empty run discovers nothing and validates nothing; succeeding
         silently would let a mis-configured CI invocation pass vacuously. *)
      Format.eprintf
        "qtr discover: the %s alphabet produced no candidate templates at \
         --max-nodes %d; raise --max-nodes or pick a larger alphabet@."
        (Discovery.Template.alphabet_name alphabet)
        max_nodes;
      exit 2
    end;
    if report.seeded_survived <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "discover"
       ~doc:
         "Mine candidate rewrite rules from bounded templates, refute the unsound \
          ones differentially (counterexamples land in the corpus), rank the \
          survivors, and promote the top-K through the framework's own pipeline")
    Term.(
      const run $ scale_arg $ seed_arg $ alphabet_arg $ max_nodes_arg $ trials_arg
      $ top_arg $ k_arg $ rank_budget_arg $ corpus_arg $ jobs_arg $ cache_dir_arg
      $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* qtr verify-rules                                                    *)
(* ------------------------------------------------------------------ *)

let verify_rules_cmd =
  let include_discovered_arg =
    Arg.(
      value & flag
      & info [ "include-discovered" ]
          ~doc:
            "Also verify the discovery reference sets: every expressible \
             known-sound template must verify sound and every seeded-unsound \
             template must be refuted, or the command fails.")
  in
  let max_valuations_arg =
    Arg.(
      value
      & opt int (1 lsl 18)
      & info [ "max-valuations" ] ~docv:"N"
          ~doc:
            "Predicate-valuation budget per symbolic instance; rules exceeding \
             it come back $(b,unknown) rather than burning unbounded time.")
  in
  (* One verification work item. [expect_refuted] flips the failure
     condition for the seeded-unsound reference set. *)
  let run include_discovered max_valuations jobs trace json =
    with_telemetry trace @@ fun () ->
    let items =
      List.map
        (fun (r : Dsl.Rule.t) ->
          ("registered", r.name, false, Optimizer.Rules.rdsl_of r.name))
        Optimizer.Rules.all
      @ (if not include_discovered then []
         else
           List.map
             (fun (n, c) ->
               ("known-sound", n, false, Discovery.Template.to_rdsl ~name:n c))
             Discovery.Template.known_sound
           @ List.map
               (fun (n, c) ->
                 ("seeded-unsound", n, true, Discovery.Template.to_rdsl ~name:n c))
               Discovery.Template.seeded_unsound)
    in
    let pool = pool_of jobs in
    let t0 = Unix.gettimeofday () in
    (* [map_array] merges in task order, so both renderings are
       independent of --jobs (the JSON byte-identically: it carries no
       timings). *)
    let verdicts =
      Par.Pool.map_array pool
        (fun (_, _, _, dsl) ->
          Option.map (Dsl.Rdsl.Verify.verify ~max_valuations) dsl)
        (Array.of_list items)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let rows = List.combine items (Array.to_list verdicts) in
    let status_of = function
      | None -> "unverified"
      | Some Dsl.Rdsl.Verify.Sound_bounded -> "sound"
      | Some (Dsl.Rdsl.Verify.Refuted _) -> "refuted"
      | Some (Dsl.Rdsl.Verify.Unknown _) -> "unknown"
    in
    let failed ((_, _, expect_refuted, dsl), v) =
      match (dsl, v) with
      | None, _ -> false (* closure-only or outside the DSL fragment *)
      | Some _, Some (Dsl.Rdsl.Verify.Refuted _) -> not expect_refuted
      | Some _, _ -> expect_refuted
    in
    let failures = List.filter failed rows in
    let count s =
      List.length (List.filter (fun (_, v) -> String.equal (status_of v) s) rows)
    in
    if json then begin
      let item_json ((group, name, expect_refuted, _), v) =
        Obs.Json.Obj
          ([ ("group", Obs.Json.String group);
             ("name", Obs.Json.String name);
             ("status", Obs.Json.String (status_of v));
             ("expect_refuted", Obs.Json.Bool expect_refuted);
             ("failed", Obs.Json.Bool (failed ((group, name, expect_refuted, Some ()), v)))
           ]
          @
          (match v with
          | Some (Dsl.Rdsl.Verify.Refuted c) ->
            [ ( "counterexample",
                Obs.Json.Obj
                  [ ( "instances",
                      Obs.Json.Obj
                        (List.map (fun (r, i) -> (r, Obs.Json.String i)) c.instances)
                    );
                    ( "valuation",
                      Obs.Json.List
                        (List.map (fun s -> Obs.Json.String s) c.valuation) );
                    ("lhs_rows", Obs.Json.String c.lhs_rows);
                    ("rhs_rows", Obs.Json.String c.rhs_rows) ] ) ]
          | Some (Dsl.Rdsl.Verify.Unknown m) -> [ ("reason", Obs.Json.String m) ]
          | _ -> []))
      in
      let doc =
        Obs.Json.Obj
          [ ("rules", Obs.Json.List (List.map item_json rows));
            ( "summary",
              Obs.Json.Obj
                [ ("sound", Obs.Json.Int (count "sound"));
                  ("refuted", Obs.Json.Int (count "refuted"));
                  ("unknown", Obs.Json.Int (count "unknown"));
                  ("unverified", Obs.Json.Int (count "unverified"));
                  ("failures", Obs.Json.Int (List.length failures)) ] ) ]
      in
      print_endline (Obs.Json.to_string doc)
    end
    else begin
      List.iter
        (fun (((group, name, _, _), v) as row) ->
          Printf.printf "%-15s %-34s %s%s\n" group name (status_of v)
            (if failed row then "  <-- FAIL" else "");
          match v with
          | Some (Dsl.Rdsl.Verify.Refuted _ as vd) when failed row ->
            Printf.printf "%17s%s\n" "" (Dsl.Rdsl.Verify.verdict_to_string vd)
          | Some (Dsl.Rdsl.Verify.Unknown m) -> Printf.printf "%17s(%s)\n" "" m
          | _ -> ())
        rows;
      Printf.printf
        "%d sound, %d refuted, %d unknown, %d unverified (%.2fs); %d failure(s)\n"
        (count "sound") (count "refuted") (count "unknown") (count "unverified")
        elapsed (List.length failures)
    end;
    if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify-rules"
       ~doc:
         "Check every DSL-backed registered rule against the bounded symbolic \
          oracle (small-scope set-theoretic semantics over distinguished rows and \
          NULLs, no executor); closure-only rules are reported unverified. Fails \
          if any registered rule is refuted")
    Term.(
      const run $ include_discovered_arg $ max_valuations_arg $ jobs_arg $ trace_arg
      $ json_arg)

let () =
  let doc = "testing framework for query transformation rules (SIGMOD'09 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "qtr" ~version:"1.0.0" ~doc)
          [ rules_cmd; optimize_cmd; generate_cmd; coverage_cmd; compress_cmd;
            validate_cmd; delta_cmd; replay_cmd; stats_cmd; discover_cmd;
            verify_rules_cmd; benchdiff_cmd ]))
