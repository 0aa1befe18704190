(* Tests for the Lepower_static analysis plane: the abstract value
   domain, the effect-summary interpreter's completeness verdicts and
   soundness contract (every concrete execution stays inside its
   summary), the static lint rules over the seeded-bug fixtures, the
   cross-plane counterpart dedup, and the summary-seeded POR fast
   path's agreement with the exact independence check. *)

module Value = Memory.Value
module Op_codec = Objects.Op_codec
module Absval = Lepower_static.Absval
module Absint = Lepower_static.Absint
module Summary = Lepower_static.Summary
module Soundness = Lepower_static.Soundness
module Finding = Lepower_check.Finding
module Lint = Lepower_check.Lint

let rules fs =
  List.sort_uniq compare
    (List.map (fun f -> f.Finding.rule) (List.filter Finding.is_reportable fs))

let stats_of report =
  match report.Lepower_check.Report.stats with
  | Some s -> s
  | None -> Alcotest.fail "report carries no run stats"

let analyze_instance inst =
  Absint.analyze ~bindings:inst.Protocols.Election.bindings
    (List.init inst.Protocols.Election.n inst.Protocols.Election.program)

(* --- abstract value domain --- *)

let test_absval_widening () =
  let v = Value.int in
  let a = Absval.add ~cap:3 (v 0) Absval.empty in
  let a = Absval.add ~cap:3 (v 1) a in
  let a = Absval.add ~cap:3 (v 2) a in
  Alcotest.(check (option int)) "at cap" (Some 3) (Absval.cardinal a);
  Alcotest.(check bool) "dup stays" false
    (Absval.is_top (Absval.add ~cap:3 (v 2) a));
  let widened = Absval.add ~cap:3 (v 3) a in
  Alcotest.(check bool) "past cap widens" true (Absval.is_top widened);
  Alcotest.(check bool) "top admits anything" true
    (Absval.mem (v 99) widened);
  Alcotest.(check (option int)) "top has no cardinal" None
    (Absval.cardinal widened);
  let b = Absval.join ~cap:3 a (Absval.singleton (v 1)) in
  Alcotest.(check bool) "join under cap exact" true (Absval.equal a b);
  Alcotest.(check bool) "join past cap widens" true
    (Absval.is_top (Absval.join ~cap:3 a (Absval.singleton (v 7))))

(* --- op codec: the zoo encodings added for the static plane --- *)

let test_codec_zoo_round_trip () =
  let kind msg op expected =
    Alcotest.(check string) msg expected (Op_codec.kind_name (Op_codec.classify op))
  in
  kind "ll" Op_codec.ll_op "ll";
  kind "sc" (Op_codec.sc_op (Value.int 4)) "sc";
  kind "enq" (Op_codec.enq_op (Value.int 5)) "enq";
  kind "deq" Op_codec.deq_op "deq";
  kind "test&set" Op_codec.test_and_set_op "test&set";
  kind "reset" Op_codec.reset_op "reset";
  kind "fetch&add" (Op_codec.fetch_add_op 3) "fetch&add";
  let family msg op expected =
    Alcotest.(check string) msg expected
      (Op_codec.family_name (Op_codec.classify op))
  in
  family "ll family" Op_codec.ll_op "ll/sc";
  family "sc family" (Op_codec.sc_op (Value.int 1)) "ll/sc";
  family "enq family" (Op_codec.enq_op (Value.int 1)) "queue";
  family "deq family" Op_codec.deq_op "queue";
  family "reset family" Op_codec.reset_op "test&set";
  Alcotest.(check (option int)) "fetch&add payload" (Some 3)
    (Op_codec.decode_fetch_add (Op_codec.fetch_add_op 3));
  (match Op_codec.decode_sc (Op_codec.sc_op (Value.int 4)) with
  | Some v -> Alcotest.(check bool) "sc payload" true (Value.equal v (Value.int 4))
  | None -> Alcotest.fail "sc payload lost");
  (* Ll mutates by contract: it updates the link set even though the
     value is untouched. *)
  Alcotest.(check bool) "ll mutates" true
    (Op_codec.is_mutation (Op_codec.classify Op_codec.ll_op));
  Alcotest.(check bool) "sc mutates" true
    (Op_codec.is_mutation (Op_codec.classify (Op_codec.sc_op (Value.int 0))))

(* --- summaries: completeness verdicts on the example protocols --- *)

let test_summary_completeness () =
  let cas = analyze_instance (Protocols.Cas_election.instance ~k:4 ~n:3) in
  Alcotest.(check bool) "cas complete" true cas.Summary.complete;
  Alcotest.(check (list string)) "cas no limits" [] cas.Summary.limits;
  Alcotest.(check bool) "cas has footprints" true
    (Summary.footprints cas <> None);
  Alcotest.(check int) "cas one register" 1
    (Summary.protocol_register_count cas);
  (* Every cas process reads and writes the single location C. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d touches C" p.Summary.pid)
        true
        (Summary.Sset.mem "C" (Summary.footprint p)))
    cas.Summary.per_pid;
  (* perm's response fan-out hits the caps by design: incomplete, and
     the footprints accessor must refuse to vend under-approximations. *)
  let perm =
    analyze_instance (Protocols.Permutation_election.instance ~k:3 ~n:2)
  in
  Alcotest.(check bool) "perm incomplete" false perm.Summary.complete;
  Alcotest.(check bool) "perm limits recorded" true (perm.Summary.limits <> []);
  Alcotest.(check bool) "no footprints when incomplete" true
    (Summary.footprints perm = None)

(* --- soundness: every explored execution stays inside its summary --- *)

let soundness_of_instance inst =
  let summary = analyze_instance inst in
  Alcotest.(check bool)
    (inst.Protocols.Election.name ^ " summary complete")
    true summary.Summary.complete;
  let store = Memory.Store.create inst.Protocols.Election.bindings in
  let violations = ref [] in
  let options =
    {
      Runtime.Explore.Options.default with
      dedup = true;
      on_terminal =
        Some
          (fun view ->
            match
              Soundness.check ~store summary
                (Runtime.Engine.Config_view.trace view)
            with
            | [] -> ()
            | vs -> violations := vs @ !violations);
    }
  in
  ignore
    (Runtime.Explore.explore ~options (Protocols.Election.config inst));
  Alcotest.(check (list string))
    (inst.Protocols.Election.name ^ " executions inside summary")
    [] !violations

let test_soundness_containment () =
  soundness_of_instance (Protocols.Cas_election.instance ~k:4 ~n:3);
  soundness_of_instance (Protocols.Bcl_election.instance ~k:3 ~n:2)

let test_soundness_detects_escape () =
  (* Feed the checker a summary for the WRONG program: an execution of
     the real one must escape it (wrong location, wrong states). *)
  let open Runtime.Program in
  let bindings =
    [
      ("a", Objects.Register.mwmr ~init:(Value.int 0) ());
      ("b", Objects.Register.mwmr ~init:(Value.int 0) ());
    ]
  in
  let writes loc v = Step (loc, Op_codec.write_op (Value.int v), fun _ -> Done (Value.int v)) in
  let summary = Absint.analyze ~bindings [ writes "a" 1 ] in
  Alcotest.(check bool) "decoy summary complete" true summary.Summary.complete;
  let store = Memory.Store.create bindings in
  let outcome =
    Runtime.Engine.run
      ~sched:(Runtime.Sched.random ~seed:1)
      (Runtime.Engine.init store [ writes "b" 2 ])
  in
  let trace = Runtime.Engine.trace outcome.Runtime.Engine.final in
  Alcotest.(check bool) "escape reported" true
    (Soundness.check ~store summary trace <> [])

(* --- static lint rules: fixtures fire without a single schedule --- *)

let lint_static target = Lint.lint ~static:Lint.Static_only target

let test_static_swmr_fixture () =
  let report = lint_static (Lint.broken_swmr_fixture ()) in
  Alcotest.(check (list string)) "static-swmr fires" [ "static-swmr" ]
    (rules report.Lepower_check.Report.findings);
  Alcotest.(check int) "zero schedules executed" 0
    (stats_of report).Lepower_check.Report.schedules;
  Alcotest.(check bool) "not exhaustive" false
    (stats_of report).Lepower_check.Report.exhaustive

let test_static_kbound_fixture () =
  let report = lint_static (Lint.broken_cas_fixture ()) in
  Alcotest.(check (list string)) "static-k-bound fires" [ "static-k-bound" ]
    (rules report.Lepower_check.Report.findings)

let test_static_loop_fixture () =
  let report = lint_static (Lint.spin_fixture ()) in
  Alcotest.(check (list string)) "static-loop-bound fires"
    [ "static-loop-bound" ]
    (rules report.Lepower_check.Report.findings)

let test_static_clean_examples () =
  List.iter
    (fun inst ->
      let report =
        lint_static (Lint.target_of_instance inst)
      in
      Alcotest.(check (list string))
        (inst.Protocols.Election.name ^ " statically clean")
        []
        (rules report.Lepower_check.Report.findings))
    [
      Protocols.Cas_election.instance ~k:4 ~n:3;
      Protocols.Bcl_election.instance ~k:4 ~n:3;
      Protocols.Permutation_election.instance ~k:3 ~n:2;
      Protocols.Multi_election.instance ~ks:[ 3; 2 ] ~n:2;
    ]

let test_register_budget () =
  let target = Lint.target_of_instance (Protocols.Cas_election.instance ~k:4 ~n:3) in
  let ok = Lint.lint ~static:Lint.Static_only ~register_budget:1 target in
  Alcotest.(check (list string)) "within budget" []
    (rules ok.Lepower_check.Report.findings);
  let over = Lint.lint ~static:Lint.Static_only ~register_budget:0 target in
  Alcotest.(check (list string)) "over budget" [ "static-register-budget" ]
    (rules over.Lepower_check.Report.findings)

(* --- cross-plane dedup: one root cause, one finding --- *)

let test_counterpart_dedup () =
  let target = Lint.broken_swmr_fixture () in
  let both = Lint.lint ~mode:Lint.Exhaustive ~static:Lint.Static_and_dynamic target in
  (* The dynamic swmr-discipline findings on the same location collapse
     into the static one; nothing else may surface. *)
  Alcotest.(check (list string)) "single root cause" [ "static-swmr" ]
    (rules both.Lepower_check.Report.findings);
  Alcotest.(check bool) "dynamic plane still ran" true
    ((stats_of both).Lepower_check.Report.schedules > 0);
  (* Without the static plane the dynamic finding is untouched. *)
  let dyn = Lint.lint ~mode:Lint.Exhaustive target in
  Alcotest.(check (list string)) "dynamic alone unchanged"
    [ "swmr-discipline" ]
    (rules dyn.Lepower_check.Report.findings)

(* --- POR fast path: byte-identical decisions, real fast hits --- *)

let test_fastpath_agreement () =
  let inst = Protocols.Cas_election.instance ~k:4 ~n:3 in
  let footprints =
    match Summary.footprints (analyze_instance inst) with
    | Some fp -> fp
    | None -> Alcotest.fail "cas summary incomplete"
  in
  let opts footprints =
    { Runtime.Explore.Options.default with por = true; footprints }
  in
  let decisions fps =
    Runtime.Explore.decision_sets ~options:(opts fps)
      (Protocols.Election.config inst)
  in
  Alcotest.(check bool) "decision sets byte-identical" true
    (decisions [||] = decisions footprints)

let test_fastpath_hits_disjoint () =
  (* Two copies of a tiny election with disjoint (renamed) locations:
     cross-copy pairs must be answered by the matrix alone. *)
  let rec rename f = function
    | Runtime.Program.Done v -> Runtime.Program.Done v
    | Runtime.Program.Step (loc, op, k) ->
      Runtime.Program.Step (f loc, op, fun v -> rename f (k v))
  in
  let base = Protocols.Cas_election.instance ~k:3 ~n:2 in
  let tag g loc = Printf.sprintf "g%d.%s" g loc in
  let bindings =
    List.concat_map
      (fun g ->
        List.map (fun (l, s) -> (tag g l, s)) base.Protocols.Election.bindings)
      [ 0; 1 ]
  in
  let programs =
    List.concat_map
      (fun g ->
        List.init base.Protocols.Election.n (fun pid ->
            rename (tag g) (base.Protocols.Election.program pid)))
      [ 0; 1 ]
  in
  let summary = Absint.analyze ~bindings programs in
  let footprints =
    match Summary.footprints summary with
    | Some fp -> fp
    | None -> Alcotest.fail "disjoint summary incomplete"
  in
  let config () = Runtime.Engine.init (Memory.Store.create bindings) programs in
  let opts footprints =
    { Runtime.Explore.Options.default with dedup = true; por = true; footprints }
  in
  let exact = Runtime.Explore.explore ~options:(opts [||]) (config ()) in
  let fast = Runtime.Explore.explore ~options:(opts footprints) (config ()) in
  Alcotest.(check int) "same terminals" exact.Runtime.Explore.terminals
    fast.Runtime.Explore.terminals;
  Alcotest.(check int) "same configs" exact.Runtime.Explore.configs_visited
    fast.Runtime.Explore.configs_visited;
  Alcotest.(check bool) "exact path never fast" true
    (exact.Runtime.Explore.por_fast_hits = 0);
  Alcotest.(check bool) "fast hits on disjoint groups" true
    (fast.Runtime.Explore.por_fast_hits > 0);
  let decisions fps =
    Runtime.Explore.decision_sets ~options:(opts fps) (config ())
  in
  Alcotest.(check bool) "decision sets byte-identical" true
    (decisions [||] = decisions footprints)

let () =
  Alcotest.run "static"
    [
      ( "absval",
        [ Alcotest.test_case "widening" `Quick test_absval_widening ] );
      ( "op-codec",
        [
          Alcotest.test_case "zoo round trip" `Quick
            test_codec_zoo_round_trip;
        ] );
      ( "summary",
        [
          Alcotest.test_case "completeness" `Quick test_summary_completeness;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "containment" `Quick test_soundness_containment;
          Alcotest.test_case "escape detected" `Quick
            test_soundness_detects_escape;
        ] );
      ( "static-lint",
        [
          Alcotest.test_case "broken swmr" `Quick test_static_swmr_fixture;
          Alcotest.test_case "broken cas" `Quick test_static_kbound_fixture;
          Alcotest.test_case "spin" `Quick test_static_loop_fixture;
          Alcotest.test_case "clean examples" `Quick
            test_static_clean_examples;
          Alcotest.test_case "register budget" `Quick test_register_budget;
          Alcotest.test_case "counterpart dedup" `Quick
            test_counterpart_dedup;
        ] );
      ( "por-fast-path",
        [
          Alcotest.test_case "agreement" `Quick test_fastpath_agreement;
          Alcotest.test_case "disjoint hits" `Quick
            test_fastpath_hits_disjoint;
        ] );
    ]
