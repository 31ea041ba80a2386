(* Campaign benchmark: times cold rule-testing campaigns through the
   library's public entry points and checks their answers.

     campaign.exe --workload NAME --seed N --seconds S --trace 0|1

   One process, [Par.Pool.sequential] throughout. Set-up (catalog,
   frameworks, rule registries) is repeated and timed on its own. The
   campaign is then repeated, each repetition starting from cleared
   caches, until [--seconds] have passed; wall time is the median, and
   allocation and work counts must repeat. With [--trace 1] two more
   repetitions run with the span profiler and metrics on, and the
   per-layer figures come from them. The last stdout line is one JSON
   object: {correct, attempted, failed, metrics}. See README.md. *)

open Storage
module F = Core.Framework
module Su = Core.Suite
module C = Core.Compress
module J = Obs.Json

let scale = 0.002
let options = { Optimizer.Engine.default_options with max_trees = 400 }
let pool = Par.Pool.sequential
let now = Obs.Clock.now_s
let out_dir = Filename.concat "perfbench" "out"

(* Bytes allocated so far. [Gc.minor_words] is exact at any point, but
   the major counters lag: a minor collection adds its promoted words to
   [promoted_words] at once and to [major_words] only at the next one.
   Two forced minor collections settle that lag (the second promotes
   nothing), so [major_words - promoted_words] is exactly the words
   allocated directly in the major heap, and the sum repeats to the byte. *)
let allocated_bytes () =
  Gc.minor ();
  Gc.minor ();
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.major_words -. s.promoted_words) *. float_of_int (Sys.word_size / 8)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let n = List.length l in
    if n mod 2 = 1 then List.nth l (n / 2)
    else (List.nth l ((n / 2) - 1) +. List.nth l (n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Layer spans                                                         *)
(* ------------------------------------------------------------------ *)

(* Every call into a layer goes through [layer], which accumulates the
   layer's wall seconds and allocated bytes for the repetition and keeps
   a span (name, start, end, parent) in memory; a repetition's spans
   share its run id. The whole campaign is the root span. Each span is
   also emitted through [Obs.Trace], so the library's own profiler spans
   nest under the layer that caused them. *)

type span = { sid : int; sname : string; start : float; stop : float; parent : int }

type rep_state = {
  run_id : int;
  t_origin : float;
  layer_s : (string, float ref * float ref) Hashtbl.t;  (* seconds, bytes *)
  mutable spans : span list;
  mutable open_spans : int list;
  mutable next_sid : int;
  counts : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let st = ref None
let cur () = Option.get !st

let layer name f =
  let r = cur () in
  let sid = r.next_sid in
  r.next_sid <- sid + 1;
  let parent = match r.open_spans with p :: _ -> p | [] -> -1 in
  r.open_spans <- sid :: r.open_spans;
  let a0 = allocated_bytes () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let a1 = allocated_bytes () in
    r.open_spans <- List.tl r.open_spans;
    let s, b =
      match Hashtbl.find_opt r.layer_s name with
      | Some p -> p
      | None ->
        let p = (ref 0.0, ref 0.0) in
        Hashtbl.replace r.layer_s name p;
        p
    in
    s := !s +. (t1 -. t0);
    b := !b +. (a1 -. a0);
    r.spans <- { sid; sname = name; start = t0 -. r.t_origin; stop = t1 -. r.t_origin; parent }
               :: r.spans
  in
  Fun.protect ~finally:finish (fun () -> Obs.Trace.with_span ("bench." ^ name) f)

let count name v =
  let r = cur () in
  let old = Option.value ~default:0.0 (Hashtbl.find_opt r.counts name) in
  Hashtbl.replace r.counts name (old +. v)

(* A known answer: counted against attempts, reported on stderr when
   violated. *)
let expect what ok =
  let r = cur () in
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "known-answer check failed: %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The benchmark seed is the seed of the TPC-H data generator: the
   database is the input that varies. Suite generation keeps `qtr`'s
   default seed, so every seed tests the same query shapes against other
   data, and the work done varies little from seed to seed (a different
   generation seed moves allocation by +-10%). Discovery builds its own
   database and does not take the seed; see [discover]. *)
let gen_seed = 2009

type setup = {
  sound : F.t;
  faulty : (string * F.t) list;  (* fault name, framework with it injected *)
  edits : F.t list;  (* the base registry, then each cumulative edit *)
}

let first_rules n = List.filteri (fun i _ -> i < n) Optimizer.Rules.names

(* Edit-loop registry: 12 singles; every other one is edited in turn. *)
let edit_rules = first_rules 12
let edited = List.filteri (fun i _ -> i mod 2 = 0) edit_rules

let make_setup workload ~seed =
  let cat = Datagen.tpch ~seed ~scale () in
  let sound = F.create ~options cat in
  let faulty =
    if workload = "fault-hunt" then
      List.map (fun f -> (f, F.create ~options ~rules:(Core.Faults.inject f) cat)) Core.Faults.names
    else []
  in
  let edits =
    if workload = "edit-loop" then begin
      let base = List.map Optimizer.Rules.find_exn edit_rules in
      let _, acc =
        List.fold_left
          (fun (reg, acc) rule ->
            let reg = Optimizer.Rules.simulate_edit ~rules:reg rule in
            (reg, F.create ~options ~rules:reg cat :: acc))
          (base, [ F.create ~options ~rules:base cat ])
          edited
      in
      List.rev acc
    end
    else []
  in
  { sound; faulty; edits }

let record_compress ec (suite : Su.t) =
  count "compress.edges" (fi (C.invocations_used ec));
  count "compress.edges_computed" (fi (C.computed_edges ec));
  count "compress.edges_warm" (fi (C.warm_served_edges ec));
  let viol =
    List.fold_left
      (fun n ((_, q), c) -> if c < suite.entries.(q).cost then n + 1 else n)
      0 (C.snapshot ec)
  in
  count "compress.mono_violations" (fi viol)

let record_suite (suite : Su.t) =
  count "suite.queries" (fi (Array.length suite.entries));
  count "suite.shortfall" (fi (List.fold_left (fun a (_, d) -> a + d) 0 (Su.shortfall suite)))

let record_correctness (r : Core.Correctness.report) =
  count "correctness.pairs" (fi r.pairs_checked);
  count "correctness.executions" (fi r.executions);
  count "correctness.skipped_identical" (fi r.skipped_identical)

let validate fw suite sol =
  let r = layer "correctness" (fun () -> Core.Correctness.run ~pool fw suite sol) in
  record_correctness r;
  r

(* §3.2 + §4-5: all 10 pairs of the first 5 rules at k = 3, TOPK and
   BASELINE on one shared edge-cost matrix, then validation of the TOPK
   suite. *)
let pair_campaign s =
  let targets = Su.all_pairs (first_rules 5) in
  let suite =
    layer "suite" (fun () ->
        Su.generate ~extra_ops:1 ~pool s.sound (Prng.create gen_seed) ~targets ~k:3)
  in
  record_suite suite;
  let ec, topk, base =
    layer "compress" (fun () ->
        let ec = C.edge_costs s.sound suite in
        let topk = C.topk ~exploit_monotonicity:true ~ec s.sound suite in
        (ec, topk, C.baseline ~ec s.sound suite))
  in
  record_compress ec suite;
  count "compress.cost_ratio" (ratio topk.total_cost base.total_cost);
  let r = validate s.sound suite topk in
  fun () ->
    expect "pair-campaign: no bugs on the sound registry" (r.bugs = []);
    expect "pair-campaign: no errors on the sound registry" (r.errors = [])

(* Whether a random suite surfaces an injected fault depends on the
   generation seed: at k = 8 three of the four faults show on some seeds
   only. So each hunt walks generation seeds upward from [hunt_from], the
   first seed at k = 8 that surfaces all four faults at once, until its
   fault shows. *)
let hunt_from = 5
let max_hunt = 8

(* Validation-heavy: 6 sound singles at k = 3, then a hunt for each
   injected fault at k = 8 (the settings of `qtr reduce`), triage, and
   replay of every reduced reproducer with and without the fault. *)
let fault_hunt s =
  let targets = List.map (fun r -> Su.Single r) (first_rules 6) in
  let suite =
    layer "suite" (fun () ->
        Su.generate ~extra_ops:2 ~pool s.sound (Prng.create gen_seed) ~targets ~k:3)
  in
  record_suite suite;
  let ec, sol =
    layer "compress" (fun () ->
        let ec = C.edge_costs s.sound suite in
        (ec, C.topk ~pool ~ec s.sound suite))
  in
  record_compress ec suite;
  let sound = validate s.sound suite sol in
  let hunts =
    List.map
      (fun (fault, fw) ->
        let victim = Su.Single fault in
        let rec hunt g =
          let suite =
            layer "suite" (fun () ->
                Su.generate ~extra_ops:2 ~pool fw (Prng.create g) ~targets:[ victim ] ~k:8)
          in
          record_suite suite;
          let ec, sol =
            layer "compress" (fun () ->
                let ec = C.edge_costs fw suite in
                (ec, C.topk ~pool ~ec fw suite))
          in
          record_compress ec suite;
          let r = validate fw suite sol in
          if r.bugs = [] && g < hunt_from + max_hunt - 1 then hunt (g + 1)
          else r
        in
        let r = hunt hunt_from in
        let t = layer "triage" (fun () -> Triage.Pipeline.triage ~max_checks:400 ~pool fw r) in
        let replays =
          layer "triage" (fun () ->
              List.map
                (fun (c : Triage.Pipeline.case) ->
                  let v o = Triage.Oracle.check (Triage.Oracle.create ~site:"replay" o c.target) c.reduced in
                  (v fw, v s.sound))
                t.cases)
        in
        count "triage.checks" (fi t.checks);
        count "triage.executions" (fi t.executions);
        count "triage.cases" (fi (List.length t.cases));
        List.iter
          (fun (c : Triage.Pipeline.case) ->
            count "triage.nodes_before" (fi c.stats.original_size);
            count "triage.nodes_after" (fi c.stats.reduced_size))
          t.cases;
        if t.cases <> [] then count "triage.faults_detected" 1.0;
        (fault, t, replays))
      s.faulty
  in
  fun () ->
    expect "fault-hunt: no bugs on the sound registry" (sound.bugs = []);
    expect "fault-hunt: no errors on the sound registry" (sound.errors = []);
    List.iter
      (fun (fault, (t : Triage.Pipeline.report), replays) ->
        expect (fault ^ " detected") (t.cases <> []);
        List.iter
          (fun (faulty, sound) ->
            expect (fault ^ " reproducer diverges with the fault")
              (match faulty with Triage.Oracle.Diverges _ -> true | _ -> false);
            expect (fault ^ " reproducer agrees on the sound registry")
              (match sound with
              | Triage.Oracle.Diverges _ | Triage.Oracle.Invalid _ -> false
              | Agrees | Rule_not_fired -> true))
          replays)
      hunts

(* The discovery loop over the basic alphabet, with a one-query ranking
   suite and a 64-tree ranking budget so that one loop takes seconds, not
   tens of seconds. Discovery builds its own database from a fixed spec,
   and its validation seed decides which instances it executes: across
   seeds 1-10 peak memory ranged 63-320 MB and allocation +-10%. So the
   workload keeps the default validation seed, and the benchmark seed
   does not reach it. The expected verdicts are the reference sets of
   [Discovery.Template] restricted to the enumerated candidates, computed
   once outside the timed region. *)
let discover_expected =
  lazy
    (let module T = Discovery.Template in
     let cands = T.enumerate T.Basic ~max_nodes:2 in
     let present (_, c) = List.exists (T.equal c) cands in
     ( List.map fst (List.filter present T.known_sound),
       List.map fst (List.filter present T.seeded_unsound) ))

let discover _ =
  let module D = Discovery.Driver in
  let config =
    { D.default_config with
      alphabet = Discovery.Template.Basic;
      suite_k = 1;
      rank_budget = 64 }
  in
  let rep = layer "discovery" (fun () -> D.run ~pool config) in
  count "discovery.candidates" (fi rep.candidates);
  count "discovery.checks" (fi rep.checks);
  count "discovery.refuted" (fi rep.refuted);
  count "discovery.inconclusive" (fi rep.inconclusive);
  count "discovery.scoring_optimizer_runs" (fi rep.scoring_optimizer_runs);
  fun () ->
    let sound, unsound = Lazy.force discover_expected in
    List.iter
      (fun n -> expect ("seeded-unsound " ^ n ^ " refuted") (List.mem n rep.seeded_refuted))
      unsound;
    expect "no seeded-unsound candidate survives" (rep.seeded_survived = []);
    List.iter
      (fun n -> expect ("known-sound " ^ n ^ " kept") (List.exists (fun (_, k) -> k = n) rep.rediscovered))
      sound

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec du path =
  if Sys.is_directory path then
    Array.fold_left (fun a f -> a + du (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* One cold build of 12 singles at k = 3 persisted to a manifest, then
   six rebuilds, each after a behaviour-preserving edit of one more rule:
   the incremental path of `qtr compress --incremental`. *)
let edit_loop s =
  let targets = List.map (fun r -> Su.Single r) edit_rules in
  let dir = Filename.concat out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  rm_rf dir;
  let dc = Diskcache.create ~dir () in
  let build fw =
    let t0 = now () in
    let sess =
      layer "incr" (fun () ->
          let t0 = now () in
          let sess = Core.Incr.start ~dc ~desc:"perfbench-edit-loop" fw in
          count "storage.manifest_load_s" (now () -. t0);
          sess)
    in
    let suite =
      layer "suite" (fun () ->
          Core.Incr.generate ~extra_ops:2 ~pool sess (Prng.create gen_seed) ~targets ~k:3)
    in
    let ec, sol =
      layer "compress" (fun () ->
          let ec = C.edge_costs ~warm_edges:(Core.Incr.warm_edges sess) fw suite in
          (ec, C.topk ~pool ~ec fw suite))
    in
    let stored =
      layer "incr" (fun () ->
          Core.Incr.note_matrix sess ec;
          let t0 = now () in
          let ok = Core.Incr.finish sess in
          count "storage.manifest_store_s" (now () -. t0);
          ok)
    in
    record_suite suite;
    record_compress ec suite;
    (now () -. t0, suite, sol, Core.Incr.result sess, stored)
  in
  let results = List.map build s.edits in
  let cold_s, cold_suite, cold_sol, _, cold_stored = List.hd results in
  let rebuilds = List.tl results in
  count "incr.cold_s" cold_s;
  List.iter
    (fun (secs, _, _, (r : Core.Incr.report), _) ->
      count "incr.rebuild_s" secs;
      count "incr.edges_reused" (fi r.edges_reusable);
      count "incr.edges_total" (fi r.edges_total);
      count "incr.entries_reused" (fi r.entries_reused);
      if r.full_rebuild then count "incr.full_rebuilds" 1.0)
    rebuilds;
  let same_suite (a : Su.t) (b : Su.t) =
    Array.length a.entries = Array.length b.entries
    && Array.for_all2
         (fun (x : Su.entry) (y : Su.entry) -> x.query = y.query && x.cost = y.cost)
         a.entries b.entries
    && a.per_target = b.per_target
  in
  fun () ->
    count "storage.cache_bytes" (fi (du dir));
    rm_rf dir;
    expect "edit-loop: cold manifest stored" cold_stored;
    List.iteri
      (fun i (_, suite, (sol : C.solution), (r : Core.Incr.report), stored) ->
        let what = Printf.sprintf "edit-loop rebuild %d (%s)" (i + 1) (List.nth edited i) in
        expect (what ^ ": manifest reused") (r.manifest_found && not r.full_rebuild);
        expect (what ^ ": manifest stored") stored;
        expect (what ^ ": same suite as the cold build") (same_suite suite cold_suite);
        expect (what ^ ": same assignment as the cold build")
          (sol.assignment = cold_sol.assignment && sol.total_cost = cold_sol.total_cost))
      rebuilds

let workloads =
  [ ("pair-campaign", pair_campaign);
    ("fault-hunt", fault_hunt);
    ("discover", discover);
    ("edit-loop", edit_loop) ]

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)
(* ------------------------------------------------------------------ *)

type rep = {
  wall : float;
  alloc : float;
  major : int;  (* major collections during the campaign *)
  top_heap_mb : float;  (* the process's largest major heap so far *)
  r : rep_state;
}

let cold_start () =
  Relalg.Hashcons.clear ();
  Relalg.Props.clear ();
  Executor.Cache.clear ();
  Relalg.Ident.reset_fresh ();
  Obs.Metrics.reset ();
  Obs.Profile.reset ();
  Gc.full_major ()

let run_rep ~run_id campaign s =
  cold_start ();
  let r =
    { run_id; t_origin = now (); layer_s = Hashtbl.create 8; spans = []; open_spans = [];
      next_sid = 0; counts = Hashtbl.create 32; attempted = 0; failed = 0 }
  in
  st := Some r;
  let g0 = Gc.quick_stat () in
  let outcome =
    try Ok (layer "campaign" (fun () -> campaign s)) with e -> Error (Printexc.to_string e)
  in
  let g1 = Gc.quick_stat () in
  (* Known answers are checked outside the timed region. *)
  (match outcome with
  | Ok check -> (
    try check () with e -> expect ("checks finished: " ^ Printexc.to_string e) false)
  | Error e -> expect ("campaign finished: " ^ e) false);
  let wall, alloc = Hashtbl.find r.layer_s "campaign" in
  { wall = !wall;
    alloc = !alloc;
    major = g1.major_collections - g0.major_collections;
    top_heap_mb = fi g1.top_heap_words *. fi (Sys.word_size / 8) /. 1e6;
    r }

let profile_rows () = Obs.Profile.rows ()

(* Every exploration, whoever asked for it: discovery's differential
   checks call the engine directly, not through a framework. *)
let optimizer_calls () =
  List.fold_left
    (fun a (row : Obs.Profile.row) ->
      if row.name = "engine.explore" || row.name = "engine.explore_shared" then a + row.count
      else a)
    0 (profile_rows ())
  |> fi

(* Figures that must repeat for a given seed. Counts repeat exactly.
   Allocation repeats to within a few words, for two reasons found in the
   library: [Diskcache.store] names its temporary file with
   [Filename.temp_file], whose random name sometimes needs a padding
   string; and with metrics on, a histogram's min/max fields are boxed
   floats, reallocated whenever a timing sample sets a new extreme. So
   allocation is compared to within [alloc_slack] bytes, 1/16000 of the
   smallest campaign's allocation. *)
let alloc_slack = 65536.0

let same_figures fa fb =
  List.for_all2
    (fun (n, x) (m, y) ->
      n = m
      && (x = y || (String.ends_with ~suffix:"alloc_bytes" n && Float.abs (x -. y) <= alloc_slack)))
    fa fb

let report_differences what fa fb =
  List.iter2
    (fun (n, x) (_, y) -> if x <> y then Printf.eprintf "  %s %s: %.17g vs %.17g\n" what n x y)
    fa fb

let exact_names =
  [ "suite.queries"; "suite.shortfall"; "compress.edges"; "compress.edges_computed";
    "compress.edges_warm"; "compress.mono_violations"; "correctness.pairs";
    "correctness.executions"; "triage.checks"; "triage.cases"; "discovery.checks";
    "discovery.candidates"; "incr.edges_reused"; "storage.cache_bytes" ]

let exact_figures traced rep =
  let c n = Option.value ~default:0.0 (Hashtbl.find_opt rep.r.counts n) in
  let layers =
    Hashtbl.fold (fun n (_, b) acc -> (n ^ ".alloc_bytes", !b) :: acc) rep.r.layer_s []
  in
  let opt =
    if traced then
      [ ("optimizer.trees", fi (Obs.Metrics.counter_total "optimizer.explore.trees"));
        ("optimizer.calls", optimizer_calls ()) ]
    else []
  in
  List.sort compare
    (layers @ opt @ List.map (fun n -> (n, c n)) exact_names)

(* ------------------------------------------------------------------ *)
(* Per-layer figures from a traced repetition                          *)
(* ------------------------------------------------------------------ *)

let prof_sum ?(prefix = false) name field =
  List.fold_left
    (fun a (row : Obs.Profile.row) ->
      if (if prefix then String.starts_with ~prefix:name row.name else row.name = name) then
        a +. field row
      else a)
    0.0 (profile_rows ())

let prof_row name = List.find_opt (fun (row : Obs.Profile.row) -> row.name = name) (profile_rows ())

(* Seconds and library counts come from the traced repetition [rep];
   per-layer allocation from an untraced one, where metrics do not
   allocate. GC figures come from the warm-up, the first campaign of the
   process as one `qtr` run would do it: the timed repetitions start from
   a full major collection and often complete no major cycle at all. *)
let per_layer ~warm ~untraced ~untraced_wall rep =
  let c n = Option.value ~default:0.0 (Hashtbl.find_opt rep.r.counts n) in
  let ls n = match Hashtbl.find_opt rep.r.layer_s n with Some (s, _) -> !s | None -> 0.0 in
  let lmb n = match Hashtbl.find_opt untraced.r.layer_s n with Some (_, b) -> !b /. 1e6 | None -> 0.0 in
  let ms ns = ns /. 1e6 and secs ns = ns /. 1e9 in
  let self n = secs (prof_sum n (fun r -> r.self_ns)) in
  let total n = secs (prof_sum n (fun r -> r.total_ns)) in
  let explore = prof_row "engine.explore" in
  let ctr = Obs.Metrics.counter_total in
  let hit_ratio h m = ratio (fi (ctr h)) (fi (ctr h + ctr m)) in
  (* The campaign's root span is span 0. *)
  let covered =
    List.fold_left
      (fun a sp -> if sp.parent = 0 then a +. (sp.stop -. sp.start) else a)
      0.0 rep.r.spans
  in
  [ ("optimizer.calls", optimizer_calls (), "count");
    ("optimizer.trees", fi (ctr "optimizer.explore.trees"), "count");
    ("optimizer.truncated", fi (ctr "optimizer.explore.budget_exhausted"), "count");
    ("optimizer.explore_self_s", self "engine.explore", "s");
    ("optimizer.explore_shared_self_s", self "engine.explore_shared", "s");
    ("optimizer.cost_self_s", self "engine.cost", "s");
    ("optimizer.explore_p50_ms", (match explore with Some r -> ms r.p50_ns | None -> 0.0), "ms");
    ("optimizer.explore_p95_ms", (match explore with Some r -> ms r.p95_ns | None -> 0.0), "ms");
    ( "optimizer.rewrite_memo_hit_ratio",
      hit_ratio "optimizer.rewrite_memo.hits" "optimizer.rewrite_memo.misses", "ratio" );
    ("optimizer.plan_memo_hit_ratio", hit_ratio "optimizer.memo.hits" "optimizer.memo.misses", "ratio");
    ("suite.s", ls "suite", "s");
    ("suite.alloc_mb", lmb "suite", "MB");
    ("suite.queries", c "suite.queries", "count");
    ("suite.shortfall", c "suite.shortfall", "count");
    ("compress.s", ls "compress", "s");
    ("compress.alloc_mb", lmb "compress", "MB");
    ("compress.edges", c "compress.edges", "count");
    ("compress.edges_computed", c "compress.edges_computed", "count");
    ("compress.edges_warm", c "compress.edges_warm", "count");
    ("compress.mono_violations", c "compress.mono_violations", "count");
    ("compress.cost_ratio", c "compress.cost_ratio", "ratio");
    ("correctness.s", ls "correctness", "s");
    ("correctness.alloc_mb", lmb "correctness", "MB");
    ("correctness.pairs", c "correctness.pairs", "count");
    ("correctness.executions", c "correctness.executions", "count");
    ("correctness.skipped_identical", c "correctness.skipped_identical", "count");
    ("executor.exec_self_s", secs (prof_sum ~prefix:true "exec." (fun r -> r.self_ns)), "s");
    ("executor.rows", fi (ctr "executor.rows"), "count");
    ( "executor.cache_hit_ratio",
      hit_ratio "executor.result_cache.hits" "executor.result_cache.misses", "ratio" );
    ("triage.s", ls "triage", "s");
    ("triage.alloc_mb", lmb "triage", "MB");
    ("triage.checks", c "triage.checks", "count");
    ("triage.executions", c "triage.executions", "count");
    ("triage.cases", c "triage.cases", "count");
    ( "triage.shrink",
      ratio (c "triage.nodes_before" -. c "triage.nodes_after") (c "triage.nodes_before"),
      "ratio" );
    ("triage.faults_detected", c "triage.faults_detected", "count");
    ("discovery.s", ls "discovery", "s");
    ("discovery.validate_s", total "discovery.validate", "s");
    ("discovery.rank_s", total "discovery.rank", "s");
    ("discovery.promote_s", total "discovery.promote", "s");
    ("discovery.candidates", c "discovery.candidates", "count");
    ("discovery.checks", c "discovery.checks", "count");
    ("discovery.refuted", c "discovery.refuted", "count");
    ("discovery.inconclusive", c "discovery.inconclusive", "count");
    ("discovery.scoring_optimizer_runs", c "discovery.scoring_optimizer_runs", "count");
    ("incr.cold_s", c "incr.cold_s", "s");
    ("incr.rebuild_s", c "incr.rebuild_s", "s");
    ("incr.edges_reused_ratio", ratio (c "incr.edges_reused") (c "incr.edges_total"), "ratio");
    ("incr.entries_reused", c "incr.entries_reused", "count");
    ("incr.full_rebuilds", c "incr.full_rebuilds", "count");
    ("storage.manifest_load_s", c "storage.manifest_load_s", "s");
    ("storage.manifest_store_s", c "storage.manifest_store_s", "s");
    ("storage.cache_bytes", c "storage.cache_bytes", "bytes");
    ("gc.major_collections", fi warm.major, "count");
    ("gc.top_heap_mb", warm.top_heap_mb, "MB");
    ("trace.wall_s", rep.wall, "s");
    ("trace.overhead_ratio", ratio rep.wall untraced_wall, "ratio");
    ("trace.coverage", ratio covered rep.wall, "ratio") ]

let write_spans ~workload ~seed reps =
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  let oc = open_out path in
  List.iter
    (fun rep ->
      List.iter
        (fun sp ->
          output_string oc
            (J.to_string
               (J.Obj
                  [ ("run", J.Int rep.r.run_id); ("id", J.Int sp.sid); ("name", J.String sp.sname);
                    ("start_s", J.Float sp.start); ("end_s", J.Float sp.stop);
                    ("parent", if sp.parent < 0 then J.Null else J.Int sp.parent) ]));
          output_char oc '\n')
        (List.sort (fun a b -> compare a.sid b.sid) rep.r.spans))
    reps;
  close_out oc

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> fi kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Set-up takes a few milliseconds, so one timing of it is mostly timer
   and page-fault noise; the median of many is steady. *)
let setup_reps = 31
let min_reps = 3

(* Share of the traced campaign that its layer spans must account for. *)
let min_coverage = 0.95

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "campaign.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and traced = !trace = 1 in
  let campaign =
    match List.assoc_opt workload workloads with
    | Some c -> c
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  (* The discovery ranker reads the optimizer.rule.fired counters, as
     `qtr discover` does, so metrics stay on for it even untraced. *)
  Obs.Metrics.set_enabled (workload = "discover");
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let timed_setup () =
    Gc.full_major ();
    let t0 = now () in
    let s = make_setup workload ~seed in
    (now () -. t0, s)
  in
  let first_setup, s = timed_setup () in
  if workload = "discover" then ignore (Lazy.force discover_expected);
  (* One untimed repetition first: it pays one-time initialisation (metric
     registration, lazy tables) and grows the heap to its working size, so
     every timed repetition starts from the same state. *)
  let warm = run_rep ~run_id:0 campaign s in
  (* The peak of set-up plus one cold campaign, as one `qtr` run would
     see it. Later repetitions can grow the heap further (the major heap
     is not compacted), by an amount that depends on how many fit in the
     run, so they are left out. *)
  let rss = peak_rss_mb () in
  let start = now () in
  let rec loop acc i =
    if i > min_reps && now () -. start >= !seconds then List.rev acc
    else loop (run_rep ~run_id:i campaign s :: acc) (i + 1)
  in
  let reps = loop [] 1 in
  let wall = median (List.map (fun r -> r.wall) reps) in
  (* The remaining set-ups run after the campaigns, so that their garbage
     does not count in the peak resident set. *)
  let setup_s =
    median (first_setup :: List.init (setup_reps - 1) (fun _ -> fst (timed_setup ())))
  in
  (* Determinism: every repetition of a seed allocates as much and counts
     exactly the same; the traced pair adds the optimizer's own counts. *)
  let figs = List.map (exact_figures false) reps in
  let untraced_same = List.for_all (same_figures (List.hd figs)) figs in
  if not untraced_same then begin
    Printf.eprintf "determinism check failed: untraced repetitions differ\n";
    List.iteri (fun i f -> report_differences (Printf.sprintf "rep %d" (i + 1)) (List.hd figs) f) figs
  end;
  let traced_reps, traced_same =
    if traced then begin
      Obs.Metrics.set_enabled true;
      Obs.Profile.enable ();
      let n = List.length reps + 1 in
      let a = run_rep ~run_id:n campaign s in
      let b = run_rep ~run_id:(n + 1) campaign s in
      let fa = exact_figures true a and fb = exact_figures true b in
      let same = same_figures fa fb in
      if not same then begin
        Printf.eprintf "determinism check failed: traced repetitions differ\n";
        report_differences "traced" fa fb
      end;
      ([ a; b ], same)
    end
    else ([], true)
  in
  let all = (warm :: reps) @ traced_reps in
  let attempted = List.fold_left (fun a r -> a + r.r.attempted) 0 all in
  let failed = List.fold_left (fun a r -> a + r.r.failed) 0 all in
  let metrics =
    if traced then begin
      write_spans ~workload ~seed traced_reps;
      per_layer ~warm ~untraced:(List.hd reps) ~untraced_wall:wall (List.nth traced_reps 1)
    end
    else
      [ ("wall_s", wall, "s");
        ("setup_s", setup_s, "s");
        ("peak_rss_mb", rss, "MB");
        ("alloc_gb", (List.hd reps).alloc /. 1e9, "GB") ]
  in
  Printf.eprintf "%s seed %d: %d reps, walls [%s]\n%!" workload seed (List.length reps)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) reps));
  let covered =
    match List.find_opt (fun (n, _, _) -> n = "trace.coverage") metrics with
    | Some (_, c, _) when c < min_coverage ->
      Printf.eprintf "layer spans cover %.3f of the traced campaign, below %.2f\n" c min_coverage;
      false
    | _ -> true
  in
  let correct = failed = 0 && untraced_same && traced_same && covered in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) ) ]));
  if not correct then exit 1
