(* Tests for Runtime.Fuzz and the fault plane: determinism of seeded
   campaigns across every scheduler kind, fault semantics (lost writes,
   stuck-at registers), and the headline property — a fuzz-found
   certificate replays bit for bit with its faults re-injected. *)

module Value = Memory.Value
module Store = Memory.Store
module Engine = Runtime.Engine
module Sched = Runtime.Sched
module Repro = Runtime.Repro
module Faults = Runtime.Faults
module Fuzz = Runtime.Fuzz
module Fingerprint = Runtime.Fingerprint
module Lint = Lepower_check.Lint
module Subject = Lepower_check.Repro_subject
module Election = Protocols.Election

let kinds =
  [
    Fuzz.Random_walk;
    Fuzz.Pct { depth = 3 };
    Fuzz.Starve { victim = 0; stall = 4 };
  ]

(* --- determinism: same seed => identical log and digest --------------- *)

let test_run_determinism () =
  let resolved = Subject.of_target (Lint.broken_cas_fixture ~flip:true ()) in
  List.iter
    (fun kind ->
      let name = Fuzz.kind_name kind in
      let go () =
        Fuzz.run ~max_steps:200 ~plan:Faults.default ~kind ~seed:42
          resolved.Subject.config
      in
      let r1 = go () and r2 = go () in
      Alcotest.(check bool)
        (name ^ ": identical decision logs") true
        (r1.Fuzz.decisions = r2.Fuzz.decisions);
      Alcotest.(check string)
        (name ^ ": identical final digests")
        (Fingerprint.digest r1.Fuzz.final)
        (Fingerprint.digest r2.Fuzz.final))
    kinds

let test_campaign_cert_determinism () =
  let target = Lint.broken_cas_fixture ~flip:true () in
  List.iter
    (fun kind ->
      let name = Fuzz.kind_name kind in
      let go () = Lint.fuzz_target ~kind ~runs:64 ~seed:1 target in
      let o1 = go () and o2 = go () in
      match (o1.Fuzz.cert, o2.Fuzz.cert) with
      | Some c1, Some c2 ->
        Alcotest.(check bool)
          (name ^ ": identical certificates (digests included)")
          true (c1 = c2);
        Alcotest.(check bool)
          (name ^ ": same run found it") true
          (o1.Fuzz.first_violation = o2.Fuzz.first_violation)
      | _ -> Alcotest.failf "%s: campaign found no violation" name)
    kinds

(* --- the seeded bugs are found and the certificates replay ------------ *)

let test_finds_flip_fixtures () =
  List.iter
    (fun target ->
      let outcome =
        Lint.fuzz_target ~kind:(Fuzz.Pct { depth = 3 }) ~runs:64 ~seed:1
          target
      in
      match outcome.Fuzz.cert with
      | None -> Alcotest.failf "%s: bug not found" target.Lint.name
      | Some cert -> (
        (* Resolve the certificate's own subject, as `lepower replay`
           would, and check the replayed final still fails. *)
        match Subject.resolve cert.Repro.subject with
        | Error e -> Alcotest.failf "%s: subject: %s" target.Lint.name e
        | Ok resolved -> (
          match Repro.replay cert resolved.Subject.config with
          | Error e -> Alcotest.failf "%s: replay: %s" target.Lint.name e
          | Ok final ->
            Alcotest.(check bool)
              (target.Lint.name ^ ": replayed final still fails")
              true
              (resolved.Subject.failing (Engine.Config_view.of_config final) <> None))))
    [ Lint.broken_cas_fixture ~flip:true (); Lint.broken_swmr_fixture ~flip:true () ]

(* --- fault semantics -------------------------------------------------- *)

let counter_spec =
  Memory.Spec.make ~type_name:"counter" ~init:(Value.int 0)
    ~apply:(fun ~pid:_ s op ->
      match op with
      | Value.Sym "incr" -> Ok (Value.int (Value.as_int s + 1), s)
      | Value.Sym "read" -> Ok (s, s)
      | _ -> Error "bad op")

let incr_and_read =
  let open Runtime.Program in
  complete
    (let* _ = op "c" (Value.sym "incr") in
     op "c" (Value.sym "read"))

let config () =
  Engine.init
    (Store.create [ ("c", counter_spec) ])
    [ incr_and_read; incr_and_read ]

let test_freeze_semantics () =
  let store = Store.create [ ("c", counter_spec) ] in
  let frozen = Store.freeze store "c" in
  (match Store.apply frozen ~pid:0 "c" (Value.sym "incr") with
  | Error e -> Alcotest.failf "frozen incr rejected: %s" e
  | Ok (store', response) ->
    Alcotest.(check bool) "response as if applied" true
      (Value.equal response (Value.int 0));
    Alcotest.(check bool) "state unchanged" true
      (Store.peek store' "c" = Some (Value.int 0)));
  (match Store.spec_of frozen "c" with
  | Some spec ->
    Alcotest.(check string) "type name marks the fault" "stuck(counter)"
      spec.Memory.Spec.type_name
  | None -> Alcotest.fail "spec vanished");
  (* idempotent: freezing twice does not re-wrap *)
  (match Store.spec_of (Store.freeze frozen "c") "c" with
  | Some spec ->
    Alcotest.(check string) "freeze is idempotent" "stuck(counter)"
      spec.Memory.Spec.type_name
  | None -> Alcotest.fail "spec vanished");
  Alcotest.check_raises "unknown location"
    (Invalid_argument "Store.freeze: unknown location \"nope\"") (fun () ->
      ignore (Store.freeze store "nope"))

let test_step_lost_semantics () =
  let c0 = config () in
  let c1 = Engine.step_lost c0 0 in
  Alcotest.(check bool) "store unchanged" true
    (Store.peek c1.Engine.store "c" = Some (Value.int 0));
  Alcotest.(check int) "process advanced" 1 c1.Engine.procs.(0).Runtime.Proc.steps;
  Alcotest.(check int) "clock ticked" 1 c1.Engine.time;
  Alcotest.(check int) "trace event recorded" 1
    (List.length c1.Engine.trace)

let test_fault_decisions_roundtrip () =
  let decisions =
    [ Repro.Lose 0; Repro.Stick "c"; Repro.Step 0; Repro.Step 1 ]
  in
  let cert =
    Repro.of_decisions ~sched:"test" ~message:"faulty run" (config ())
      decisions
  in
  (match Repro.of_json (Repro.to_json cert) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok cert' ->
    Alcotest.(check bool) "fault decisions survive JSON" true (cert = cert'));
  match Repro.replay cert (config ()) with
  | Error e -> Alcotest.failf "fault cert replay: %s" e
  | Ok final ->
    (* Lose 0 dropped p0's increment; Stick "c" froze the register; the
       remaining steps cannot move it: the counter must still read 0. *)
    Alcotest.(check bool) "faults re-injected on replay" true
      (Store.peek final.Engine.store "c" = Some (Value.int 0))

let test_election_fuzz_with_faults () =
  (* Lost writes genuinely break a correct cas election: the campaign
     must find a violation whose certificate contains fault decisions
     and replays bit for bit through subject resolution. *)
  let k = 4 and n = 3 in
  let instance = Protocols.Cas_election.instance ~k ~n in
  let subject = Subject.election ~protocol:"cas" ~k ~n () in
  let plan = { Faults.default with lose_p = 0.25; max_faults = 4 } in
  let outcome =
    Election.fuzz ~runs:128 ~seed:1 ~plan ~kind:Fuzz.Random_walk ~subject
      instance
  in
  match outcome.Fuzz.cert with
  | None -> Alcotest.fail "no violation under heavy lost writes"
  | Some cert -> (
    Alcotest.(check bool) "certificate carries fault decisions" true
      (List.exists Faults.is_fault cert.Repro.decisions);
    match Subject.resolve cert.Repro.subject with
    | Error e -> Alcotest.failf "subject: %s" e
    | Ok resolved -> (
      match Repro.replay cert resolved.Subject.config with
      | Error e -> Alcotest.failf "replay: %s" e
      | Ok final ->
        Alcotest.(check bool) "replayed final still violates" true
          (resolved.Subject.failing (Engine.Config_view.of_config final) <> None)))

(* --- the new schedulers ----------------------------------------------- *)

let test_starve_withholds_victim () =
  let sched = Sched.starve ~victim:0 ~stall:2 (Sched.round_robin ()) in
  let pick () =
    let pid = sched.Sched.choose ~time:0 ~enabled:[ 0; 1 ] in
    sched.Sched.observe ~time:0 ~pid;
    pid
  in
  let first = pick () in
  let second = pick () in
  let third = pick () in
  Alcotest.(check (list int)) "victim withheld for stall steps, then runs"
    [ 1; 1; 0 ]
    [ first; second; third ]

let test_starve_sole_survivor () =
  let sched = Sched.starve ~victim:0 ~stall:100 (Sched.round_robin ()) in
  Alcotest.(check int) "sole enabled victim still runs" 0
    (sched.Sched.choose ~time:0 ~enabled:[ 0 ])

(* The pids [sched] runs in [steps] steps while every pid in [enabled]
   stays enabled. *)
let drive sched ~enabled steps =
  List.init steps (fun time ->
      let pid = sched.Sched.choose ~time ~enabled in
      sched.Sched.observe ~time ~pid;
      pid)

let test_pct_deterministic_and_demoting () =
  let mk () = Sched.pct ~seed:9 ~depth:3 ~max_steps:50 () in
  let drive sched = drive sched ~enabled:[ 0; 1; 2 ] 20 in
  let s1 = drive (mk ()) and s2 = drive (mk ()) in
  Alcotest.(check (list int)) "same seed, same schedule" s1 s2;
  (* Without change points the top-priority pid runs solo; with depth 3
     the demotions must let some other pid in eventually. *)
  Alcotest.(check bool) "priority changes actually happen" true
    (List.length (List.sort_uniq compare s1) > 1)

(* --- schedules pinned across versions ------------------------------- *)

(* Certificates, bug reports and benchmarks name schedules by seed, so a
   seed must keep naming the same schedule.  These decision logs were
   recorded from [Fuzz.run] and must not move: a scheduler or fault-plane
   change that alters one changes what every recorded seed means. *)

let pinned_kinds =
  [
    ("pct3", Fuzz.Pct { depth = 3 });
    ("pct5", Fuzz.Pct { depth = 5 });
    ("random", Fuzz.Random_walk);
    ("starve", Fuzz.Starve { victim = 0; stall = 4 });
  ]

(* "lose" and "stick" each have one positive rate: their rolls must
   follow the same sequence as under [Faults.default]. *)
let pinned_plans =
  [
    ("none", Faults.none);
    ("default", Faults.default);
    ("lose", { Faults.none with lose_p = 0.3; max_faults = 8 });
    ("stick", { Faults.none with stick_p = 0.3; max_faults = 8 });
  ]

let log_string ds =
  String.concat " " (List.map (Fmt.str "%a" Repro.Decision.pp) ds)

(* kind, plan, seed, decision log on cas-election k=5 n=4.  Each process
   moves once, so PCT's demotions never change who runs next here; the
   n=24 digests and the duplicate-change-point case below cover them. *)
let pinned_logs =
  [
    ("pct3", "none", 0, "s1 s2 s3 s0");
    ("pct3", "none", 1, "s2 s0 s1 s3");
    ("pct3", "none", 2, "s3 s2 s0 s1");
    ("pct3", "default", 0, "s1 l2 s3 s0");
    ("pct3", "default", 1, "s2 s0 s1 s3");
    ("pct3", "default", 2, "l3 s2 s0 s1");
    ("pct5", "none", 0, "s1 s2 s3 s0");
    ("pct5", "none", 1, "s2 s0 s1 s3");
    ("pct5", "none", 2, "s3 s2 s0 s1");
    ("pct5", "default", 0, "s1 l2 s3 s0");
    ("pct5", "default", 1, "s2 s0 s1 s3");
    ("pct5", "default", 2, "l3 s2 s0 s1");
    ("random", "none", 0, "s2 s3 s1 s0");
    ("random", "none", 1, "s2 s1 s0 s3");
    ("random", "none", 2, "s1 s2 s0 s3");
    ("random", "default", 0, "s2 l3 s1 s0");
    ("random", "default", 1, "s2 s1 s0 s3");
    ("random", "default", 2, "l1 s2 s0 s3");
    ("starve", "none", 0, "s1 s2 s3 s0");
    ("starve", "none", 1, "s3 s1 s2 s0");
    ("starve", "none", 2, "s3 s2 s1 s0");
    ("starve", "default", 0, "s1 l2 s3 s0");
    ("starve", "default", 1, "s3 s1 s2 s0");
    ("starve", "default", 2, "l3 s2 s1 s0");
    ("pct3", "lose", 0, "s1 l2 s3 s0");
    ("pct3", "lose", 1, "s2 l0 s1 l3");
    ("pct3", "lose", 2, "l3 s2 s0 s1");
    ("pct3", "stick", 0, "s1 k:C s2 s3 k:C s0");
    ("pct3", "stick", 1, "s2 k:C k:C s0 s1 s3");
    ("pct3", "stick", 2, "k:C s3 s2 s0 s1");
    ("random", "lose", 0, "s2 l3 s1 s0");
    ("random", "lose", 1, "s2 l1 s0 l3");
    ("random", "lose", 2, "l1 s2 s0 s3");
    ("random", "stick", 0, "s2 k:C s3 s1 k:C s0");
    ("random", "stick", 1, "s2 k:C k:C s1 s0 s3");
    ("random", "stick", 2, "k:C s1 s2 s0 s3");
  ]

(* kind, plan, MD5 of the newline-joined logs of seeds 0-199 on the
   n=24 flip fixture (a cas(25) register), at the campaign's step cap *)
let pinned_digests =
  [
    ("pct3", "none", "d5fb276a4130c2993142c5f9319f1722");
    ("pct3", "default", "a650ab6cbcd8776e3c8eb5a9b2a2aea3");
    ("pct5", "none", "668251b360bd406d4d58fe5c0c75a09b");
    ("pct5", "default", "a5fcfc224543dcb13000fc972222ebbe");
    ("random", "none", "ecbb0b2e85373812f901baf8b45aebba");
    ("random", "default", "7e8f85d69b3a27d77da0f661f24643b0");
    ("starve", "none", "59144acd6190d0ae385799c9ddf81bd0");
    ("starve", "default", "f14d9b77f8577cb2fbb1e96467502dfc");
  ]

let test_pinned_logs () =
  let config = Election.config (Protocols.Cas_election.instance ~k:5 ~n:4) in
  List.iter
    (fun (kind_name, plan_name, seed, expected) ->
      let r =
        Fuzz.run
          ~plan:(List.assoc plan_name pinned_plans)
          ~kind:(List.assoc kind_name pinned_kinds)
          ~seed config
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s seed %d" kind_name plan_name seed)
        expected (log_string r.Fuzz.decisions))
    pinned_logs;
  (* Certificates record the scheduler's name as well. *)
  List.iter2
    (fun (_, kind) expected ->
      Alcotest.(check string) "scheduler name" expected
        (Fuzz.run ~kind ~seed:7 config).Fuzz.sched_name)
    pinned_kinds
    [
      "fuzz:pct(seed=7,d=3)"; "fuzz:pct(seed=7,d=5)"; "fuzz:random(7)";
      "fuzz:random(7)+starve(0,4)";
    ]

(* depth 8 over a 4-step cap: seven change points on four steps, so
   steps are drawn twice and the first level drawn for a step must win.
   All four pids stay enabled; seed, schedule. *)
let pinned_pct_duplicates =
  [
    (0, [ 1; 2; 3; 0; 1; 1; 1; 1; 1; 1; 1; 1 ]);
    (1, [ 2; 0; 1; 3; 3; 3; 3; 3; 3; 3; 3; 3 ]);
    (2, [ 3; 2; 0; 1; 2; 2; 2; 2; 2; 2; 2; 2 ]);
    (3, [ 1; 0; 2; 3; 3; 3; 3; 3; 3; 3; 3; 3 ]);
    (4, [ 1; 3; 0; 2; 2; 2; 2; 2; 2; 2; 2; 2 ]);
    (5, [ 1; 0; 2; 3; 1; 1; 1; 1; 1; 1; 1; 1 ]);
  ]

let test_pinned_pct_duplicates () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        expected
        (drive (Sched.pct ~seed ~depth:8 ~max_steps:4 ()) ~enabled:[ 0; 1; 2; 3 ]
           12))
    pinned_pct_duplicates

let test_pinned_digests () =
  let t = Lint.broken_cas_fixture ~n:24 ~flip:true () in
  let config = (Subject.of_target t).Subject.config in
  let max_steps = (t.Lint.budget * List.length t.Lint.programs * 2) + 1000 in
  List.iter
    (fun (kind_name, plan_name, expected) ->
      let logs =
        List.init 200 (fun seed ->
            log_string
              (Fuzz.run ~max_steps
                 ~plan:(List.assoc plan_name pinned_plans)
                 ~kind:(List.assoc kind_name pinned_kinds)
                 ~seed config)
                .Fuzz.decisions)
      in
      Alcotest.(check string)
        (kind_name ^ "/" ^ plan_name ^ " seeds 0-199")
        expected
        (Digest.to_hex (Digest.string (String.concat "\n" logs))))
    pinned_digests

let test_pct_any_step_cap () =
  (* Change points are drawn over [0, max_steps) for any positive cap,
     including caps past the 2^30 - 1 that [Random.State.int] accepts. *)
  List.iter
    (fun max_steps ->
      let run () =
        drive (Sched.pct ~seed:3 ~depth:5 ~max_steps ()) ~enabled:[ 0; 1; 2 ] 10
      in
      Alcotest.(check (list int))
        (Printf.sprintf "max_steps %d: deterministic" max_steps)
        (run ()) (run ()))
    [ 0x3fffffff; 0x40000000; max_int ];
  let resolved = Subject.of_target (Lint.broken_cas_fixture ~flip:true ()) in
  let r =
    Fuzz.run ~max_steps:max_int ~kind:(Fuzz.Pct { depth = 3 }) ~seed:1
      resolved.Subject.config
  in
  Alcotest.(check bool) "the run ends on its own" false r.Fuzz.hit_step_limit

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "run: log + digest per kind" `Quick
            test_run_determinism;
          Alcotest.test_case "campaign: certificate per kind" `Quick
            test_campaign_cert_determinism;
        ] );
      ( "violations",
        [
          Alcotest.test_case "flip fixtures found and replayed" `Quick
            test_finds_flip_fixtures;
          Alcotest.test_case "election under lost writes" `Quick
            test_election_fuzz_with_faults;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stuck-at freeze" `Quick test_freeze_semantics;
          Alcotest.test_case "lost write" `Quick test_step_lost_semantics;
          Alcotest.test_case "fault decisions round-trip and replay" `Quick
            test_fault_decisions_roundtrip;
        ] );
      ( "sched",
        [
          Alcotest.test_case "starve withholds victim" `Quick
            test_starve_withholds_victim;
          Alcotest.test_case "starve sole survivor" `Quick
            test_starve_sole_survivor;
          Alcotest.test_case "pct deterministic" `Quick
            test_pct_deterministic_and_demoting;
          Alcotest.test_case "pct accepts any step cap" `Quick
            test_pct_any_step_cap;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "decision logs, cas k=5 n=4" `Quick
            test_pinned_logs;
          Alcotest.test_case "log digests, n=24 flip fixture" `Quick
            test_pinned_digests;
          Alcotest.test_case "pct with duplicate change points" `Quick
            test_pinned_pct_duplicates;
        ] );
    ]
