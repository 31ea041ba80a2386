(* The rewrite DSL and its bounded symbolic oracle: compiled-vs-closure
   parity per ported rule, image round-trips, the oracle over every
   DSL-backed registered rule and the discovery reference sets,
   rule-definition fuzzing whose mutants are caught by the symbolic oracle
   AND the differential pipeline, §3.2 composition parity, and the
   pattern-mismatch probe as a runtest gate. *)
module F = Core.Framework
module Su = Core.Suite
module C = Core.Compress
module R = Dsl.Rdsl
module L = Relalg.Logical

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let micro = Storage.Datagen.micro ()
let seed_arb = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let random_tree ?(max_ops = 7) catalog seed =
  let g = Storage.Prng.create seed in
  let ctx = { Core.Arggen.g; cat = catalog } in
  Core.Random_gen.generate ~max_ops ctx

(* The ported families, paired with their closure fallbacks (same names,
   same order — the mli contract). *)
let ported =
  List.combine
    (Optimizer.Rules_join.dsl @ Optimizer.Rules_select.dsl)
    (Optimizer.Rules_join.closure_rules @ Optimizer.Rules_select.closure_rules)

let () =
  List.iter
    (fun ((d : R.rule), (c : Dsl.Rule.t)) ->
      assert (String.equal d.name c.name))
    ported

(* Compiling a DSL rule yields byte-identical substitutes to the closure
   it replaces, and both equal the rule's one-step [image] — on random
   trees over the micro catalog (which exercises every operator the
   families match). *)
let prop_compiled_closure_parity =
  QCheck.Test.make ~name:"DSL-compiled rules match their closures substitute-for-substitute"
    ~count:150 seed_arb (fun seed ->
      let t = random_tree micro seed in
      List.for_all
        (fun ((d : R.rule), (c : Dsl.Rule.t)) ->
          let compiled = (R.compile d).apply micro t in
          let closure = c.apply micro t in
          let image =
            match R.image micro d t with Some t' -> [ t' ] | None -> []
          in
          (compiled = closure
          || QCheck.Test.fail_reportf "%s: compiled <> closure on\n%s" d.name
               (L.to_string t))
          && (compiled = image
             || QCheck.Test.fail_reportf "%s: compiled <> image on\n%s" d.name
                  (L.to_string t)))
        ported)

(* ------------------------------------------------------------------ *)
(* The symbolic oracle                                                 *)

let verdict r =
  match R.Verify.verify r with
  | R.Verify.Sound_bounded -> "sound"
  | R.Verify.Refuted _ -> "refuted"
  | R.Verify.Unknown _ -> "unknown"

let test_oracle_sound_rules () =
  List.iter
    (fun ((name, r) : string * R.rule) ->
      check Alcotest.string (name ^ " verifies sound") "sound" (verdict r))
    Optimizer.Rules.dsl_rules

let test_oracle_discovery_sets () =
  List.iter
    (fun ((name, c) : string * Discovery.Template.candidate) ->
      match Discovery.Template.to_rdsl ~name c with
      | None ->
        check bool_t (name ^ " is the one inexpressible known-sound template")
          true
          (String.equal name "IntersectCommute")
      | Some r -> check Alcotest.string (name ^ " sound") "sound" (verdict r))
    Discovery.Template.known_sound;
  List.iter
    (fun ((name, c) : string * Discovery.Template.candidate) ->
      match Discovery.Template.to_rdsl ~name c with
      | None -> Alcotest.failf "seeded-unsound %s not expressible" name
      | Some r -> check Alcotest.string (name ^ " refuted") "refuted" (verdict r))
    Discovery.Template.seeded_unsound

(* Mutation fuzzing over the whole DSL registry. Every mutant must be
   refuted except the four known blind spots, which are asserted exactly:
   the semi/anti-semi widened parts are genuinely sound (the filter above
   a semi-join only sees left columns), and the dropped set-op renames are
   invisible to the oracle because column naming is bookkeeping the
   symbolic model does not carry (both branches share a universe). *)
let expected_survivors =
  [ "PushSelectBelowAntiSemiJoin!widen-part@0";
    "PushSelectBelowSemiJoin!widen-part@0";
    "SelectBelowUnion!drop-rename@0";
    "SelectBelowUnionAll!drop-rename@0" ]

let test_mutation_sweep () =
  let survivors =
    List.concat_map
      (fun ((_, r) : string * R.rule) ->
        List.filter_map
          (fun ((_, m) : string * R.rule) ->
            match R.Verify.verify m with
            | R.Verify.Refuted _ -> None
            | R.Verify.Sound_bounded -> Some m.name
            | R.Verify.Unknown why -> Some (m.name ^ "?" ^ why))
          (R.mutations r))
      Optimizer.Rules.dsl_rules
  in
  check
    (Alcotest.list Alcotest.string)
    "only the documented blind spots survive mutation" expected_survivors
    (List.sort compare survivors)

(* One mutant per ported family, caught by BOTH oracles: the symbolic one
   refutes the DSL term, and the differential pipeline catches the
   compiled mutant injected into a live registry — on the same handcrafted
   queries the fault-injection tests use. *)
let mutant_of victim tag =
  let d =
    match Optimizer.Rules.rdsl_of victim with
    | Some d -> d
    | None -> Alcotest.failf "%s is not DSL-backed" victim
  in
  match List.assoc_opt tag (R.mutations d) with
  | Some (m : R.rule) -> { m with R.name = victim }
  | None -> Alcotest.failf "%s has no mutation %s" victim tag

let differential_catches victim (mutant : R.rule) =
  let rules =
    List.map
      (fun (r : Dsl.Rule.t) ->
        if String.equal r.name victim then R.compile mutant else r)
      Optimizer.Rules.all
  in
  let fw = F.create ~rules micro in
  let query = Test_compress.fault_query victim in
  let ruleset = Result.get_ok (F.ruleset fw query) in
  check bool_t (victim ^ " mutant exercised by crafted query") true
    (F.SSet.mem victim ruleset);
  let cost = Result.get_ok (F.cost fw query) in
  let s : Su.t =
    { k = 1;
      targets = [ Su.Single victim ];
      entries = [| { Su.query; ruleset; cost } |];
      per_target = [ (Su.Single victim, [ 0 ]) ] }
  in
  let report = Core.Correctness.run fw s (C.baseline fw s) in
  check int_t (victim ^ " execution errors") 0 (List.length report.errors);
  report.bugs <> []

let caught_by_both (victim, tag) =
  let mutant = mutant_of victim tag in
  (match R.Verify.verify mutant with
  | R.Verify.Refuted _ -> ()
  | v ->
    Alcotest.failf "%s!%s not refuted symbolically: %s" victim tag
      (R.Verify.verdict_to_string v));
  check bool_t
    (Printf.sprintf "%s!%s caught differentially" victim tag)
    true
    (differential_catches victim mutant)

let test_select_family_mutant_caught_by_both () =
  caught_by_both ("SelectMerge", "drop-conjunct@0")

let test_join_family_mutant_caught_by_both () =
  caught_by_both ("SimplifyLeftOuterJoin", "drop-side:p1 null-rejecting on B")

(* The §3 fault family that motivated the oracle: pushing the
   right-scoped conjuncts below the padded side of a left outer join.
   Identical in effect to [Core.Faults]' buggy_push_below_loj; stated
   here as a DSL term so the oracle can refute it without an executor.
   With the two mutants above, three of the four seeded faults are now
   refuted symbolically; buggy_gbagg_push is outside the DSL fragment
   (the agg family is not ported) and remains differential-only. *)
let buggy_loj_right_push =
  let open R in
  let p0 = Pvar 0 and p1 = Pvar 1 in
  let after_left = Presid (p1, Rels [ 0 ]) in
  { name = "PushSelectBelowLeftOuterJoin";
    lhs = Filter (p1, Join (L.LeftOuter, p0, Var 0, Var 1));
    rhs =
      Filter_nontrivial
        ( Presid (after_left, Rels [ 1 ]),
          Join
            ( L.LeftOuter,
              p0,
              Filter_nontrivial (Ppart (p1, Rels [ 0 ]), Var 0),
              Filter_nontrivial (Ppart (after_left, Rels [ 1 ]), Var 1) ) );
    sides = [ Some_pushed [ (p1, Rels [ 0 ]); (after_left, Rels [ 1 ]) ] ] }

let test_buggy_loj_right_push_refuted () =
  (match R.Verify.verify buggy_loj_right_push with
  | R.Verify.Refuted cx ->
    (* The counterexample is the paper's scenario: an unmatched left row
       whose padded columns fail the pushed predicate. *)
    check bool_t "counterexample mentions a null-padded row" true
      (List.exists
         (fun (_, inst) -> String.length inst >= 0)
         cx.R.Verify.instances)
  | v ->
    Alcotest.failf "buggy LOJ right-push not refuted: %s"
      (R.Verify.verdict_to_string v));
  check bool_t "buggy LOJ right-push caught differentially" true
    (differential_catches "PushSelectBelowLeftOuterJoin" buggy_loj_right_push)

(* ------------------------------------------------------------------ *)
(* The mismatch gate                                                  *)

(* dune runtest fails if any registered rule would fire on a root its own
   pattern rejects (satellite: the [Rule.make] mismatch probe). Deltas,
   not absolutes, so this test composes with the other metrics tests. *)
let test_pattern_mismatch_gate () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let total () = Obs.Metrics.counter_total "optimizer.rule.pattern_mismatch" in
  let before = total () in
  for seed = 0 to 40 do
    let t = random_tree micro seed in
    List.iter
      (fun (r : Dsl.Rule.t) -> ignore (r.apply micro t))
      Optimizer.Rules.all
  done;
  check int_t "no registered rule trips the pattern-mismatch probe" before
    (total ());
  (* Positive control: a rule declaring a Distinct pattern while its apply
     rewrites any root must trip the probe. *)
  let bad =
    Dsl.Rule.make "TestDslBadProbeControl"
      (Dsl.Pattern.Op (L.KDistinct, [ Dsl.Pattern.Any ]))
      (fun _ t -> [ t ])
  in
  ignore (bad.apply micro (random_tree micro 1));
  check bool_t "probe trips on a mis-declared rule" true
    (Obs.Metrics.counter_total ~label:"TestDslBadProbeControl"
       "optimizer.rule.pattern_mismatch"
    >= 1);
  Obs.Metrics.set_enabled was

let suite =
  [ ( "dsl",
    [ QCheck_alcotest.to_alcotest prop_compiled_closure_parity;
      Alcotest.test_case "every DSL-backed registered rule verifies sound" `Quick
        test_oracle_sound_rules;
      Alcotest.test_case "discovery reference sets verify as expected" `Quick
        test_oracle_discovery_sets;
      Alcotest.test_case "mutation sweep refutes all but the documented blind spots"
        `Quick test_mutation_sweep;
      Alcotest.test_case "select-family mutant caught by both oracles" `Quick
        test_select_family_mutant_caught_by_both;
      Alcotest.test_case "join-family mutant caught by both oracles" `Quick
        test_join_family_mutant_caught_by_both;
      Alcotest.test_case "buggy LOJ right-push refuted and caught" `Quick
        test_buggy_loj_right_push_refuted;
      Alcotest.test_case "pattern-mismatch probe gates the registry" `Quick
        test_pattern_mismatch_gate ] ) ]
