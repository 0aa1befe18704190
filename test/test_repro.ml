(* Tests for Runtime.Repro: schedule certificates, bit-for-bit replay,
   and ddmin counterexample shrinking — plus the halt-sentinel contract
   of Sched.crashing.

   Everything here leans on one fact: programs are pure and schedulers
   are oblivious, so a run is fully determined by the initial
   configuration and the decision sequence.  A certificate that stops
   replaying bit-for-bit is a bug somewhere in that chain. *)

module Value = Memory.Value
module Program = Runtime.Program
module Engine = Runtime.Engine
module Sched = Runtime.Sched
module Explore = Runtime.Explore
module Repro = Runtime.Repro
module Fingerprint = Runtime.Fingerprint
module Election = Protocols.Election
module Lint = Lepower_check.Lint
module Subject = Lepower_check.Repro_subject

let counter_spec =
  Memory.Spec.make ~type_name:"counter" ~init:(Value.int 0)
    ~apply:(fun ~pid:_ s op ->
      match op with
      | Value.Sym "incr" -> Ok (Value.int (Value.as_int s + 1), s)
      | Value.Sym "read" -> Ok (s, s)
      | _ -> Error "bad op")

let incr_and_read =
  let open Program in
  complete
    (let* _ = op "c" (Value.sym "incr") in
     op "c" (Value.sym "read"))

let config () =
  Engine.init (Memory.Store.create [ ("c", counter_spec) ]) [ incr_and_read; incr_and_read ]

(* --- record -> replay: bit-identical finals across every scheduler --- *)

let test_record_replay_schedulers () =
  List.iter
    (fun sched ->
      let c0 = config () in
      let outcome, cert = Repro.record ~max_steps:50 ~sched c0 in
      let name = cert.Repro.sched in
      Alcotest.(check bool)
        (name ^ ": decisions recorded")
        true
        (cert.Repro.decisions <> []);
      match Repro.replay cert (config ()) with
      | Error e -> Alcotest.failf "%s: replay rejected: %s" name e
      | Ok final ->
        Alcotest.(check string)
          (name ^ ": replayed digest = recorded digest")
          (Fingerprint.digest outcome.Engine.final)
          (Fingerprint.digest final))
    [
      Sched.round_robin ();
      Sched.random ~seed:7;
      Sched.fixed [ 1; 1; 0; 0 ];
      Sched.crashing ~crashed:[ 1 ] (Sched.round_robin ());
    ]

(* --- explorer path certificates, including crash decisions --- *)

let test_explore_crash_cert () =
  (* Fail exactly when the adversary crashed someone: the first
     violating DFS path necessarily contains a Crash decision, so the
     certificate exercises crash replay. *)
  let predicate view =
    let someone_crashed =
      List.exists
        (fun pid -> Engine.Config_view.status view pid = Runtime.Proc.Crashed)
        (List.init (Engine.Config_view.n_procs view) Fun.id)
    in
    if someone_crashed then Error "a process crashed" else Ok ()
  in
  let options = { Explore.Options.default with crash_faults = true } in
  match Explore.check_all ~options (config ()) predicate with
  | Ok _ -> Alcotest.fail "crash-fault adversary never crashed anyone"
  | Error v ->
    Alcotest.(check bool) "path contains a crash decision" true
      (List.exists
         (function Repro.Crash _ -> true | _ -> false)
         v.Explore.decisions);
    let cert =
      Repro.of_decisions ~sched:"explore" ~message:v.Explore.message
        (config ()) v.Explore.decisions
    in
    (match Repro.replay cert (config ()) with
    | Error e -> Alcotest.failf "explorer cert rejected: %s" e
    | Ok final -> (
      match predicate (Engine.Config_view.of_config final) with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "replayed final lost the crash"))

let test_election_explore_repro () =
  let instance = Protocols.Bcl_election.overloaded_instance ~k:3 in
  match Election.explore_repro instance ~max_steps:60 with
  | Ok _ -> Alcotest.fail "overloaded bcl: bug not found"
  | Error (v, cert) ->
    Alcotest.(check string) "sched field" "explore" cert.Repro.sched;
    Alcotest.(check string) "message carried over" v.Explore.message
      cert.Repro.message;
    (match Repro.replay cert (Election.config instance) with
    | Error e -> Alcotest.failf "election cert rejected: %s" e
    | Ok final -> (
      match
        Election.check_config instance (Engine.Config_view.of_config final)
      with
      | Ok () -> Alcotest.fail "replayed final passes the election check"
      | Error _ -> ()))

(* --- serialization --- *)

let test_json_roundtrip () =
  let _, cert = Repro.record ~seed:3 ~sched:(Sched.random ~seed:3) (config ()) in
  let cert = Repro.with_message cert "round-trip me" in
  match Repro.of_json (Repro.to_json cert) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok cert' ->
    Alcotest.(check bool) "round-tripped certificate equal" true (cert = cert')

let test_corrupted_cert_rejected () =
  let _, cert = Repro.record ~sched:(Sched.round_robin ()) (config ()) in
  let flip s =
    String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) s
  in
  (match Repro.replay { cert with Repro.final = flip cert.Repro.final } (config ()) with
  | Ok _ -> Alcotest.fail "tampered final digest accepted"
  | Error e ->
    Alcotest.(check bool) "names the final mismatch" true
      (String.length e > 0));
  match Repro.replay { cert with Repro.initial = flip cert.Repro.initial } (config ()) with
  | Ok _ -> Alcotest.fail "tampered initial digest accepted"
  | Error _ -> ()

(* --- shrinking --- *)

(* First seed whose sampled schedule makes the resolved subject fail. *)
let failing_cert (target : Lint.target) (resolved : Subject.resolved)
    ~max_steps =
  let rec go seed =
    if seed > 64 then Alcotest.fail "no failing seed below 64"
    else
      let outcome, cert =
        Repro.record ~subject:target.Lint.subject ~seed ~max_steps
          ~sched:(Sched.random ~seed) resolved.Subject.config
      in
      match
        resolved.Subject.failing
          (Engine.Config_view.of_config outcome.Engine.final)
      with
      | Some message -> Repro.with_message cert message
      | None -> go (seed + 1)
  in
  go 1

let test_shrink_broken_cas () =
  let target = Lint.broken_cas_fixture ~n:16 () in
  let resolved = Subject.of_target target in
  let config0 = resolved.Subject.config in
  let failing c = resolved.Subject.failing c <> None in
  let failing_config final = failing (Engine.Config_view.of_config final) in
  let cert = failing_cert target resolved ~max_steps:1024 in
  let min_cert, stats = Repro.shrink ~failing ~config0 cert in
  Alcotest.(check int) "original length" (List.length cert.Repro.decisions)
    stats.Repro.original;
  (* The minimal violating schedule is the 3-decision ascending cas
     chain; anything longer means a pass missed a removable decision. *)
  Alcotest.(check int) "shrunk to the 3-decision core" 3 stats.Repro.shrunk;
  Alcotest.(check bool) "published 5x ratio holds" true
    (float_of_int stats.Repro.original /. float_of_int stats.Repro.shrunk
     >= 5.0);
  (* The shrunk certificate is a real certificate: strict replay, still
     failing. *)
  (match Repro.replay min_cert config0 with
  | Error e -> Alcotest.failf "shrunk cert rejected: %s" e
  | Ok final ->
    Alcotest.(check bool) "shrunk cert still fails" true
      (failing_config final));
  (* 1-minimality: removing any single decision loses the failure. *)
  List.iteri
    (fun i _ ->
      let rest = List.filteri (fun j _ -> j <> i) min_cert.Repro.decisions in
      match Repro.apply ~strict:false config0 rest with
      | Error e -> Alcotest.failf "lenient apply failed: %s" e
      | Ok a ->
        Alcotest.(check bool)
          (Printf.sprintf "dropping decision %d no longer fails" i)
          false
          (failing_config a.Repro.final))
    min_cert.Repro.decisions

let test_shrink_broken_swmr () =
  let target = Lint.broken_swmr_fixture () in
  let resolved = Subject.of_target target in
  let config0 = resolved.Subject.config in
  let failing c = resolved.Subject.failing c <> None in
  let failing_config final = failing (Engine.Config_view.of_config final) in
  let cert = failing_cert target resolved ~max_steps:256 in
  let min_cert, stats = Repro.shrink ~failing ~config0 cert in
  Alcotest.(check bool) "never grows" true
    (stats.Repro.shrunk <= stats.Repro.original);
  match Repro.replay min_cert config0 with
  | Error e -> Alcotest.failf "shrunk cert rejected: %s" e
  | Ok final ->
    Alcotest.(check bool) "shrunk cert still fails" true
      (failing_config final)

(* --- applicability: pids outside the run or already finished --- *)

let test_apply_inapplicable () =
  let c0 = config () in
  let strict ds expected =
    match Repro.apply ~strict:true c0 ds with
    | Ok _ -> Alcotest.failf "strict apply accepted %s" expected
    | Error e -> Alcotest.(check string) "strict error" expected e
  in
  strict [ Repro.Step 2 ]
    "decision 0 (s2) is not applicable: enabled = {0, 1}";
  strict [ Repro.Lose 7 ]
    "decision 0 (l7) is not applicable: enabled = {0, 1}";
  strict [ Repro.Step (-1) ]
    "decision 0 (s-1) is not applicable: enabled = {0, 1}";
  strict [ Repro.Crash (-3) ]
    "decision 0 (c-3) is not applicable: enabled = {0, 1}";
  (* p0 finishes after its two operations; a third step is stale. *)
  strict
    [ Repro.Step 0; Repro.Step 0; Repro.Step 0 ]
    "decision 2 (s0) is not applicable: enabled = {1}";
  match
    Repro.apply ~strict:false c0
      [
        Repro.Step 2; Repro.Step 0; Repro.Step (-1); Repro.Step 0;
        Repro.Crash 0; Repro.Step 1;
      ]
  with
  | Error e -> Alcotest.failf "lenient apply failed: %s" e
  | Ok a ->
    Alcotest.(check int) "lenient apply skips the three" 3 a.Repro.skipped;
    Alcotest.(check bool) "and keeps the rest in order" true
      (a.Repro.applied = [ Repro.Step 0; Repro.Step 0; Repro.Step 1 ])

(* --- the crashing wrapper's halt sentinel --- *)

let test_crashing_halt_sentinel () =
  let sched = Sched.crashing ~crashed:[ 0 ] (Sched.round_robin ()) in
  Alcotest.(check int) "only crashed pids enabled -> halt" Sched.halt
    (sched.Sched.choose ~time:0 ~enabled:[ 0 ]);
  Alcotest.(check int) "live pid still scheduled" 1
    (sched.Sched.choose ~time:0 ~enabled:[ 0; 1 ])

let () =
  Alcotest.run "repro"
    [
      ( "replay",
        [
          Alcotest.test_case "record/replay across schedulers" `Quick
            test_record_replay_schedulers;
          Alcotest.test_case "explorer crash-path certificate" `Quick
            test_explore_crash_cert;
          Alcotest.test_case "election explore_repro" `Quick
            test_election_explore_repro;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "JSON round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "corrupted digests rejected" `Quick
            test_corrupted_cert_rejected;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "broken-cas 1-minimal at 3 decisions" `Quick
            test_shrink_broken_cas;
          Alcotest.test_case "broken-swmr shrinks and still fails" `Quick
            test_shrink_broken_swmr;
        ] );
      ( "apply",
        [
          Alcotest.test_case "inapplicable pids" `Quick
            test_apply_inapplicable;
        ] );
      ( "sched",
        [
          Alcotest.test_case "crashing halt sentinel" `Quick
            test_crashing_halt_sentinel;
        ] );
    ]
