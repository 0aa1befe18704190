(* Cross-mode equivalence of the explorer's opt-in reductions.

   The explorer's contract (Runtime.Explore) is that [~dedup], [~por],
   [~domains] and [~backend] change only the cost of the search, never
   its verdict: for trace-order-insensitive predicates the Ok/Error
   result of [check_all] and the output of [decision_sets] must be
   identical to the naive exhaustive walk's.  These tests pin that
   contract on the example protocols, including the crash-fault
   adversary and a seeded-bug instance where the verdict must stay
   Error in every mode. *)

module Explore = Runtime.Explore
module Value = Memory.Value
module Election = Protocols.Election

(* Every reduction alone, combined, and with a parallel frontier, on
   each backend: the arena runs these through its naive and reduced
   walks. *)
let modes =
  List.concat_map
    (fun backend ->
      List.map
        (fun (mode, dedup, por, domains) ->
          ( mode ^ " " ^ Runtime.Engine.backend_name backend,
            dedup,
            por,
            domains,
            backend ))
        [
          ("naive", false, false, 1);
          ("dedup", true, false, 1);
          ("por", false, true, 1);
          ("dedup+por", true, true, 1);
          ("dedup+por dom3", true, true, 3);
        ])
    [ Runtime.Engine.Persistent; Runtime.Engine.Arena ]

let opts ?(crash_faults = false) ?(backend = Runtime.Engine.Persistent)
    ~max_steps ~dedup ~por ~domains () =
  {
    Explore.Options.default with
    max_steps;
    crash_faults;
    dedup;
    por;
    domains;
    backend;
  }

let pp_sets sets =
  String.concat "; "
    (List.map
       (fun ds -> "[" ^ String.concat "," (List.map Value.to_string ds) ^ "]")
       sets)

(* --- decision_sets: byte-identical output in every mode --- *)

let check_decision_sets ?(expect_nonempty = true) name instance ~max_steps =
  let config () = Election.config instance in
  let naive =
    Explore.decision_sets
      ~options:(opts ~max_steps ~dedup:false ~por:false ~domains:1 ())
      (config ())
  in
  if expect_nonempty then
    Alcotest.(check bool)
      (name ^ ": naive decision_sets non-empty")
      true (naive <> []);
  List.iter
    (fun (mode, dedup, por, domains, backend) ->
      let ds =
        Explore.decision_sets
          ~options:(opts ~backend ~max_steps ~dedup ~por ~domains ())
          (config ())
      in
      if ds <> naive then
        Alcotest.failf "%s: decision_sets differ under %s:\n  naive: %s\n  %s: %s"
          name mode (pp_sets naive) mode (pp_sets ds))
    modes

let test_decision_sets () =
  check_decision_sets "cas k=4 n=3"
    (Protocols.Cas_election.instance ~k:4 ~n:3)
    ~max_steps:60;
  check_decision_sets "bcl k=3 n=2"
    (Protocols.Bcl_election.instance ~k:3 ~n:2)
    ~max_steps:60;
  (* Multi-location program under a step cap tight enough that every
     branch truncates: all modes must agree on the empty answer too. *)
  check_decision_sets ~expect_nonempty:false "perm k=3 n=2 cap 12"
    (Protocols.Permutation_election.instance ~k:3 ~n:2)
    ~max_steps:12

(* --- check_all: same verdict in every mode --- *)

let harness_verdict instance ~crash_faults ~max_steps
    (_, dedup, por, domains, backend) =
  match
    Election.explore_stats instance ~max_steps
      ~options:(opts ~crash_faults ~backend ~max_steps ~dedup ~por ~domains ())
  with
  | Ok stats -> `Ok stats
  | Error _ -> `Violation

let test_checked_verdicts () =
  (* Correct protocol, crash-fault adversary: Ok everywhere, with at
     least one complete execution enumerated. *)
  let cas = Protocols.Cas_election.instance ~k:4 ~n:3 in
  List.iter
    (fun ((mode, _, _, _, _) as m) ->
      match harness_verdict cas ~crash_faults:true ~max_steps:60 m with
      | `Ok stats ->
        Alcotest.(check bool)
          ("cas crash " ^ mode ^ ": terminals >= 1")
          true
          (stats.Explore.terminals >= 1)
      | `Violation -> Alcotest.failf "cas crash %s: spurious violation" mode)
    modes;
  (* Seeded bug: one process beyond bcl's capacity breaks agreement.
     Every mode must still find it. *)
  let bug = Protocols.Bcl_election.overloaded_instance ~k:3 in
  List.iter
    (fun ((mode, _, _, _, _) as m) ->
      match harness_verdict bug ~crash_faults:false ~max_steps:60 m with
      | `Ok _ -> Alcotest.failf "bcl overloaded %s: bug not found" mode
      | `Violation -> ())
    modes;
  (* Step-bound truncation is a violation, and the reductions preserve
     the existence of bound-exceeding executions. *)
  let perm = Protocols.Permutation_election.instance ~k:3 ~n:2 in
  List.iter
    (fun ((mode, _, _, _, _) as m) ->
      match harness_verdict perm ~crash_faults:false ~max_steps:12 m with
      | `Ok _ -> Alcotest.failf "perm cap 12 %s: truncation not reported" mode
      | `Violation -> ())
    modes

let test_terminals_per_protocol () =
  (* Every example protocol has at least one complete execution within
     its bound; the reduced explorer must reach one even where the naive
     walk is intractable (multi-election). *)
  let reached instance ~max_steps backend =
    let stats =
      Explore.explore
        ~options:(opts ~backend ~max_steps ~dedup:true ~por:true ~domains:1 ())
        (Election.config instance)
    in
    stats.Explore.terminals >= 1
  in
  List.iter
    (fun (name, instance, max_steps) ->
      List.iter
        (fun backend ->
          Alcotest.(check bool)
            (name ^ " " ^ Runtime.Engine.backend_name backend
           ^ ": terminals >= 1")
            true
            (reached instance ~max_steps backend))
        [ Runtime.Engine.Persistent; Runtime.Engine.Arena ])
    [
      ("cas k=4 n=3", Protocols.Cas_election.instance ~k:4 ~n:3, 60);
      ("bcl k=3 n=2", Protocols.Bcl_election.instance ~k:3 ~n:2, 60);
      ("perm k=3 n=2", Protocols.Permutation_election.instance ~k:3 ~n:2, 60);
      ("multi ks=[3,2] n=2", Protocols.Multi_election.instance ~ks:[ 3; 2 ] ~n:2, 60);
    ]

(* --- the reductions actually reduce (stats stay separated) --- *)

let test_reduction_stats () =
  let config () =
    Election.config (Protocols.Cas_election.instance ~k:4 ~n:3)
  in
  let crash ~dedup ~por ~domains =
    opts ~crash_faults:true ~max_steps:60 ~dedup ~por ~domains ()
  in
  let naive =
    Explore.explore ~options:(crash ~dedup:false ~por:false ~domains:1)
      (config ())
  in
  let dedup =
    Explore.explore ~options:(crash ~dedup:true ~por:false ~domains:1)
      (config ())
  in
  let por =
    Explore.explore ~options:(crash ~dedup:false ~por:true ~domains:1)
      (config ())
  in
  Alcotest.(check int) "naive: configs_deduped = 0" 0 naive.Explore.configs_deduped;
  Alcotest.(check int) "naive: por_pruned = 0" 0 naive.Explore.por_pruned;
  Alcotest.(check bool) "dedup prunes revisits" true
    (dedup.Explore.configs_deduped > 0);
  Alcotest.(check bool) "dedup shrinks the tree" true
    (dedup.Explore.configs_visited < naive.Explore.configs_visited);
  Alcotest.(check int) "dedup alone never POR-prunes" 0 dedup.Explore.por_pruned;
  Alcotest.(check bool) "por sleeps sibling moves" true
    (por.Explore.por_pruned > 0);
  Alcotest.(check bool) "por shrinks the tree" true
    (por.Explore.configs_visited < naive.Explore.configs_visited)

(* --- domains: deterministic stats, exact naive split --- *)

let test_domains_deterministic () =
  let config () =
    Election.config (Protocols.Cas_election.instance ~k:4 ~n:3)
  in
  let naive =
    Explore.explore
      ~options:
        (opts ~crash_faults:true ~max_steps:60 ~dedup:false ~por:false
           ~domains:1 ())
      (config ())
  in
  let run () =
    Explore.explore
      ~options:
        (opts ~crash_faults:true ~max_steps:60 ~dedup:false ~por:false
           ~domains:3 ())
      (config ())
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two domain runs agree" true (a = b);
  Alcotest.(check int) "same configs as serial naive"
    naive.Explore.configs_visited a.Explore.configs_visited;
  Alcotest.(check int) "same terminals as serial naive"
    naive.Explore.terminals a.Explore.terminals;
  Alcotest.(check int) "same choice points as serial naive"
    naive.Explore.choice_points a.Explore.choice_points;
  Alcotest.(check int) "same max depth as serial naive"
    naive.Explore.max_depth a.Explore.max_depth;
  Alcotest.(check bool) "several domains actually ran" true
    (a.Explore.domains_used > 1)

(* --- naive mode is bit-for-bit the historical walk --- *)

let test_naive_unchanged () =
  (* Pinned from the pre-reduction explorer: the default walk must keep
     producing exactly these numbers (same traversal, same counters). *)
  let stats =
    Explore.explore
      ~options:{ Explore.Options.default with max_steps = 60 }
      (Election.config (Protocols.Cas_election.instance ~k:4 ~n:3))
  in
  Alcotest.(check int) "terminals" 6 stats.Explore.terminals;
  Alcotest.(check int) "configs_visited" 16 stats.Explore.configs_visited;
  Alcotest.(check int) "configs_deduped" 0 stats.Explore.configs_deduped;
  Alcotest.(check int) "por_pruned" 0 stats.Explore.por_pruned;
  Alcotest.(check int) "domains_used" 1 stats.Explore.domains_used

(* --- POR's read detection must match the object zoo's wire format --- *)

let test_read_op_codec () =
  Alcotest.(check bool)
    "Op_codec.read_op is the literal the independence relation tests for"
    true
    (Value.equal Objects.Op_codec.read_op (Value.sym "read"))

(* --- fingerprint sanity: histories distinguish what the store cannot --- *)

let test_fingerprint_discriminates () =
  (* Two runs of the same instance reaching different per-process
     histories must not collide just because the store agrees.  Drive
     one process of cas-election to completion vs. not at all: same
     bindings, different proc statuses. *)
  let instance = Protocols.Cas_election.instance ~k:4 ~n:3 in
  let c0 = Election.config instance in
  let c1 = Runtime.Engine.step c0 0 in
  let h0 = Array.make 3 Runtime.Fingerprint.history_empty in
  let h1 = Array.make 3 Runtime.Fingerprint.history_empty in
  (match c1.Runtime.Engine.trace with
  | e :: _ -> h1.(0) <- Runtime.Fingerprint.history_extend h1.(0) e
  | [] -> Alcotest.fail "step appended no event");
  let f0 = Runtime.Fingerprint.make c0 h0 in
  let f1 = Runtime.Fingerprint.make c1 h1 in
  Alcotest.(check bool) "distinct configs, distinct fingerprints" false
    (Runtime.Fingerprint.equal f0 f1);
  (* And the fingerprint of the same config is stable. *)
  let f0' = Runtime.Fingerprint.make c0 h0 in
  Alcotest.(check bool) "same config, same fingerprint" true
    (Runtime.Fingerprint.equal f0 f0');
  Alcotest.(check int) "same config, same hash"
    (Runtime.Fingerprint.hash f0)
    (Runtime.Fingerprint.hash f0')

let () =
  Alcotest.run "explore"
    [
      ( "equivalence",
        [
          Alcotest.test_case "decision_sets identical across modes" `Quick
            test_decision_sets;
          Alcotest.test_case "check_all verdicts identical across modes"
            `Quick test_checked_verdicts;
          Alcotest.test_case "every protocol reaches a terminal" `Quick
            test_terminals_per_protocol;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "stats separate and non-trivial" `Quick
            test_reduction_stats;
          Alcotest.test_case "read-op literal matches Op_codec" `Quick
            test_read_op_codec;
        ] );
      ( "domains",
        [
          Alcotest.test_case "deterministic merged stats" `Quick
            test_domains_deterministic;
        ] );
      ( "compatibility",
        [
          Alcotest.test_case "naive walk bit-for-bit unchanged" `Quick
            test_naive_unchanged;
          Alcotest.test_case "fingerprint discriminates and is stable" `Quick
            test_fingerprint_discriminates;
        ] );
    ]
