(* Tests for the Lepower_check analysis pass: the shared op codec, the
   trace discipline checker, the bounded-value lint, the wait-freedom
   audit, the lint driver over clean protocols and seeded-bug fixtures,
   the JSONL report format, and the analyzer's reuse of a shared trace
   prefix. *)

module Value = Memory.Value
module Trace = Runtime.Trace
module Op_codec = Objects.Op_codec
module Finding = Lepower_check.Finding
module Trace_check = Lepower_check.Trace_check
module Bounded_check = Lepower_check.Bounded_check
module Waitfree_check = Lepower_check.Waitfree_check
module Lint = Lepower_check.Lint
module Report = Lepower_check.Report

let rules fs = List.sort_uniq compare (List.map (fun f -> f.Finding.rule) fs)
let reportable fs = List.filter Finding.is_reportable fs

let check_rules msg expected fs =
  Alcotest.(check (list string)) msg expected (rules (reportable fs))

(* --- op codec --- *)

let test_codec_round_trip () =
  let check_kind msg op expected =
    Alcotest.(check string) msg expected (Op_codec.kind_name (Op_codec.classify op))
  in
  check_kind "read" Op_codec.read_op "read";
  check_kind "write" (Op_codec.write_op (Value.int 7)) "write";
  check_kind "cas"
    (Op_codec.cas_op ~expected:(Value.int 0) ~desired:(Value.int 1))
    "cas";
  check_kind "swap" (Op_codec.swap_op (Value.int 2)) "swap";
  check_kind "sticky" (Op_codec.sticky_write_op (Value.int 3)) "sticky-write";
  check_kind "rmw" (Op_codec.rmw_op "incr") "rmw";
  (match
     Op_codec.decode_cas
       (Op_codec.cas_op ~expected:(Value.int 4) ~desired:(Value.int 5))
   with
  | Some (e, d) ->
    Alcotest.(check bool) "cas expected" true (Value.equal e (Value.int 4));
    Alcotest.(check bool) "cas desired" true (Value.equal d (Value.int 5))
  | None -> Alcotest.fail "decode_cas failed on its own encoding");
  Alcotest.(check bool) "read is_read" true (Op_codec.is_read Op_codec.read_op);
  Alcotest.(check bool) "read not mutation" false
    (Op_codec.is_mutation Op_codec.Read);
  Alcotest.(check bool) "write is mutation" true
    (Op_codec.is_mutation (Op_codec.Write Value.unit))

let test_codec_objects_agree () =
  (* The objects encode through the same codec the lint decodes with. *)
  Alcotest.(check bool) "register read" true
    (Value.equal Objects.Register.read_op Op_codec.read_op);
  Alcotest.(check bool) "register write" true
    (Value.equal
       (Objects.Register.write_op (Value.int 9))
       (Op_codec.write_op (Value.int 9)));
  Alcotest.(check bool) "cas op" true
    (Value.equal
       (Objects.Cas_k.cas_op ~expected:Objects.Cas_k.bottom
          ~desired:(Value.int 0))
       (Op_codec.cas_op ~expected:Objects.Cas_k.bottom
          ~desired:(Value.int 0)))

(* --- trace discipline checker --- *)

let event ~time ~pid ~loc ~op ~result = { Trace.time; pid; loc; op; result }

let mwmr_store () =
  Memory.Store.create [ ("r", Objects.Register.mwmr ~init:(Value.int 0) ()) ]

let test_trace_clean () =
  let store = mwmr_store () in
  let trace =
    [
      event ~time:0 ~pid:0 ~loc:"r" ~op:(Op_codec.write_op (Value.int 1))
        ~result:Value.unit;
      event ~time:1 ~pid:1 ~loc:"r" ~op:Op_codec.read_op
        ~result:(Value.int 1);
    ]
  in
  check_rules "clean trace" [] (Trace_check.check ~store trace)

let test_trace_swmr_violation () =
  let store = mwmr_store () in
  let trace =
    [
      event ~time:0 ~pid:0 ~loc:"r" ~op:(Op_codec.write_op (Value.int 1))
        ~result:Value.unit;
      event ~time:1 ~pid:1 ~loc:"r" ~op:(Op_codec.write_op (Value.int 2))
        ~result:Value.unit;
    ]
  in
  check_rules "two writers" [ "swmr-discipline" ]
    (Trace_check.check ~single_writer:[ "r" ] ~store trace);
  check_rules "not single-writer: fine" [] (Trace_check.check ~store trace)

let test_trace_reads_from () =
  let store = mwmr_store () in
  let trace =
    [
      event ~time:0 ~pid:0 ~loc:"r" ~op:(Op_codec.write_op (Value.int 1))
        ~result:Value.unit;
      event ~time:1 ~pid:1 ~loc:"r" ~op:Op_codec.read_op
        ~result:(Value.int 99);
    ]
  in
  check_rules "stale read" [ "reads-from" ] (Trace_check.check ~store trace);
  let before_write =
    [
      event ~time:0 ~pid:1 ~loc:"r" ~op:Op_codec.read_op
        ~result:(Value.int 5);
    ]
  in
  check_rules "read before any write" [ "reads-from" ]
    (Trace_check.check ~store before_write)

let test_trace_op_type () =
  let store = mwmr_store () in
  let trace =
    [
      event ~time:0 ~pid:0 ~loc:"r" ~op:(Op_codec.write_op (Value.int 1))
        ~result:Value.unit;
      event ~time:1 ~pid:1 ~loc:"r"
        ~op:(Op_codec.swap_op (Value.int 2))
        ~result:(Value.int 1);
    ]
  in
  check_rules "swap on a register" [ "op-type" ]
    (Trace_check.check ~store trace)

(* --- bounded-value lint --- *)

let test_history_rules () =
  let open Core.Sigma in
  check_rules "legal history" []
    (Bounded_check.check_history ~k:3 ~loc:"C" [ Bot; V 0; V 1; V 0 ]);
  check_rules "consecutive repeat" [ "sigma-history" ]
    (Bounded_check.check_history ~k:3 ~loc:"C" [ Bot; V 0; V 0 ]);
  check_rules "not starting at bottom" [ "sigma-history" ]
    (Bounded_check.check_history ~k:3 ~loc:"C" [ V 0; V 1 ]);
  check_rules "alphabet escape" [ "bounded-value" ]
    (Bounded_check.check_history ~k:3 ~loc:"C" [ Bot; V 5 ]);
  (* First uses must follow the owning label's symbol order. *)
  let label = Core.Label.extend (Core.Label.extend Core.Label.root 0) 1 in
  check_rules "first-use in label order" []
    (Bounded_check.check_history ~label ~k:3 ~loc:"C" [ Bot; V 0; V 1 ]);
  check_rules "first-use out of label order" [ "label-order" ]
    (Bounded_check.check_history ~label ~k:3 ~loc:"C" [ Bot; V 1; V 0 ])

let test_replay_divergence () =
  let store = Memory.Store.create [ ("C", Objects.Cas_k.spec ~k:3) ] in
  (* The cas reports prev = 1 but the register held ⊥: not reproducible. *)
  let trace =
    [
      event ~time:0 ~pid:0 ~loc:"C"
        ~op:
          (Op_codec.cas_op ~expected:(Value.int 1) ~desired:(Value.int 0))
        ~result:(Value.int 1);
    ]
  in
  check_rules "impossible cas result" [ "replay-divergence" ]
    (Bounded_check.check ~store trace)

let test_declared_bound () =
  (* A cas(4) register claimed to be a cas(3): feeding it 3 distinct
     non-⊥ values violates the claim though the object accepts them. *)
  let store = Memory.Store.create [ ("C", Objects.Cas_k.spec ~k:4) ] in
  let cas ~time ~pid ~expected ~desired =
    event ~time ~pid ~loc:"C"
      ~op:(Op_codec.cas_op ~expected ~desired)
      ~result:expected
  in
  let trace =
    [
      cas ~time:0 ~pid:0 ~expected:Objects.Cas_k.bottom ~desired:(Value.int 0);
      cas ~time:1 ~pid:1 ~expected:(Value.int 0) ~desired:(Value.int 1);
      cas ~time:2 ~pid:2 ~expected:(Value.int 1) ~desired:(Value.int 2);
    ]
  in
  check_rules "own k=4 bound holds" [] (Bounded_check.check ~store trace);
  check_rules "claimed k=3 bound fails" [ "bounded-value" ]
    (Bounded_check.check ~bounds:[ ("C", 3) ] ~store trace)

(* --- wait-freedom audit --- *)

let test_audit_bounded () =
  let store = mwmr_store () in
  let prog =
    let open Runtime.Program in
    complete
      (let* () = Objects.Register.write "r" (Value.int 1) in
       Objects.Register.read "r")
  in
  match Waitfree_check.audit_programs ~store ~budget:5 [ prog ] with
  | [ (0, Waitfree_check.Bounded b) ] ->
    Alcotest.(check int) "two ops" 2 b
  | _ -> Alcotest.fail "expected a Bounded verdict for pid 0"

let test_audit_exceeded () =
  let store = mwmr_store () in
  let prog =
    let open Runtime.Program in
    complete
      (repeat_until (fun () ->
           let* v = Objects.Register.read "r" in
           if Value.equal v (Value.int 42) then return (Some v)
           else return None))
  in
  match Waitfree_check.audit_programs ~store ~budget:3 [ prog ] with
  | [ (0, Waitfree_check.Exceeded { budget = 3; witness }) ] ->
    Alcotest.(check int) "witness length" 4 (List.length witness)
  | _ -> Alcotest.fail "expected an Exceeded verdict for pid 0"

(* --- the lint driver --- *)

let test_lint_clean_election () =
  let r = Lint.lint_instance (Protocols.Cas_election.instance ~k:3 ~n:2) in
  Alcotest.(check bool) "report ok" true (Report.ok r);
  Alcotest.(check (list string)) "no findings" [] (rules r.Report.findings);
  match r.Report.stats with
  | Some s ->
    Alcotest.(check bool) "exhaustive" true s.Report.exhaustive;
    Alcotest.(check bool) "analyzed schedules" true (s.Report.schedules > 0)
  | None -> Alcotest.fail "expected run stats"

let test_fixture_swmr () =
  let r = Lint.lint (Lint.broken_swmr_fixture ()) in
  Alcotest.(check bool) "not ok" false (Report.ok r);
  check_rules "planted rule" [ "swmr-discipline" ] r.Report.findings

let test_fixture_cas () =
  let r = Lint.lint (Lint.broken_cas_fixture ()) in
  Alcotest.(check bool) "not ok" false (Report.ok r);
  check_rules "planted rule" [ "bounded-value" ] r.Report.findings

let test_fixture_spin () =
  let r = Lint.lint (Lint.spin_fixture ()) in
  Alcotest.(check bool) "not ok" false (Report.ok r);
  check_rules "planted rule" [ "wait-freedom" ] r.Report.findings;
  match List.assoc_opt 0 r.Report.audits with
  | Some (Waitfree_check.Exceeded _) -> ()
  | _ -> Alcotest.fail "expected the audit to exceed the budget"

let test_lint_rules_filter () =
  let r =
    Lint.lint ~rules:[ "reads-from" ] (Lint.broken_swmr_fixture ())
  in
  Alcotest.(check bool) "filtered clean" true (Report.ok r);
  Alcotest.(check (list string)) "nothing kept" [] (rules r.Report.findings)

(* --- satellite: truncation messages name depth and last event --- *)

let test_truncated_message () =
  let store = mwmr_store () in
  let spin =
    let open Runtime.Program in
    complete
      (repeat_until (fun () ->
           let* v = Objects.Register.read "r" in
           if Value.equal v (Value.int 42) then return (Some v)
           else return None))
  in
  let config = Runtime.Engine.init store [ spin ] in
  match
    Runtime.Explore.check_all
      ~options:{ Runtime.Explore.Options.default with max_steps = 5 }
      config
      (fun _ -> Ok ())
  with
  | Ok _ -> Alcotest.fail "expected the spin to truncate"
  | Error v ->
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the depth" true
      (contains "depth 5" v.Runtime.Explore.message);
    Alcotest.(check bool) "names the last event" true
      (contains "last event" v.Runtime.Explore.message)

(* --- JSONL report format --- *)

let test_report_jsonl () =
  let reports =
    [
      Lint.lint (Lint.broken_cas_fixture ());
      Lint.lint_instance (Protocols.Cas_election.instance ~k:3 ~n:2);
    ]
  in
  let docs = List.concat_map Report.jsonl reports in
  Alcotest.(check bool) "several documents" true (List.length docs >= 3);
  List.iter
    (fun doc ->
      let line = Lepower_obs.Json.to_string doc in
      match Lepower_obs.Json.of_string line with
      | Ok round -> Alcotest.(check bool) "round-trips" true
          (Lepower_obs.Json.equal doc round)
      | Error e -> Alcotest.fail ("unparseable JSONL line: " ^ e))
    docs;
  (* The last record of each report is its summary. *)
  match List.rev (Report.jsonl (List.hd reports)) with
  | last :: _ -> (
    match Lepower_obs.Json.member "type" last with
    | Some (Lepower_obs.Json.String "lint-summary") -> ()
    | _ -> Alcotest.fail "expected a trailing lint-summary record")
  | [] -> Alcotest.fail "empty JSONL stream"

(* --- prefix reuse: [Lint.analyze] against the one-shot checks --- *)

module Explore = Runtime.Explore
module View = Runtime.Engine.Config_view
module Static_check = Lepower_check.Static_check
module Soundness = Lepower_static.Soundness
module Summary = Lepower_static.Summary
module Metrics = Lepower_obs.Metrics

let pp_findings = Fmt.(list ~sep:sp Finding.pp)

(* What [Lint.analyze] must return for [trace]: the two dynamic checks,
   each one pass over the whole trace, then the summary's soundness
   violations. *)
let one_shot ?summary (t : Lint.target) trace =
  let store = Memory.Store.create t.Lint.bindings in
  Bounded_check.check ~bounds:t.Lint.bounds ~store trace
  @ Trace_check.check ~single_writer:t.Lint.single_writer ~store trace
  @
  match summary with
  | Some (s : Summary.t) when s.Summary.complete ->
    List.map
      (Static_check.soundness_finding ~name:t.Lint.name)
      (Soundness.check ~store s trace)
  | Some _ | None -> []

let same_findings msg expected got =
  if not (List.equal Finding.equal expected got) then
    Alcotest.failf "%s: expected [%a] but the analyzer gave [%a]" msg
      pp_findings expected pp_findings got

let summary_of (t : Lint.target) =
  let options =
    {
      Lepower_static.Absint.default_options with
      Lepower_static.Absint.depth_cap =
        max Lepower_static.Absint.default_options
              .Lepower_static.Absint.depth_cap (2 * t.Lint.budget);
    }
  in
  (Static_check.analyze ~options ~bounds:t.Lint.bounds
     ~bindings:t.Lint.bindings t.Lint.programs)
    .Static_check.summary

(* [f ()] and the [lint.events_analyzed] count it made, metrics on. *)
let counting_events f =
  Metrics.reset ();
  Metrics.enable ();
  let r = f () in
  let events = Metrics.value (Metrics.counter "lint.events_analyzed") in
  Metrics.disable ();
  Metrics.reset ();
  (r, events)

(* Walk [t] exhaustively as lint does and hand every leaf (terminal or
   truncated) to one analyzer; each must match the one-shot findings.
   Returns the leaves and the leaves with findings. *)
let walk_differential ?summary (t : Lint.target) =
  let a = Lint.analyzer ?summary t in
  let leaves = ref 0 and flagged = ref 0 and faulted = ref false in
  let leaf view =
    if View.faults view <> [] then faulted := true;
    let trace = View.trace view in
    let expected = one_shot ?summary t trace in
    incr leaves;
    if expected <> [] then incr flagged;
    same_findings
      (Printf.sprintf "%s leaf %d" t.Lint.name !leaves)
      expected (Lint.analyze a trace)
  in
  let n = List.length t.Lint.programs in
  let stats, stepped =
    counting_events (fun () ->
        Explore.explore
          ~options:
            {
              Explore.Options.default with
              max_steps = (t.Lint.budget * max n 1 * 2) + 8;
              on_terminal = Some leaf;
              on_truncated = Some leaf;
            }
          (Runtime.Engine.init
             (Memory.Store.create t.Lint.bindings)
             t.Lint.programs))
  in
  Alcotest.(check int)
    (t.Lint.name ^ " every leaf analyzed")
    (stats.Explore.terminals + stats.Explore.truncated)
    !leaves;
  (* Each DFS edge is stepped once: one event per visited configuration
     past the root, except where a rejected operation faulted its process
     without recording an event. *)
  if !faulted then
    Alcotest.(check bool)
      (t.Lint.name ^ " at most one step per edge")
      true
      (stepped < stats.Explore.configs_visited)
  else
    Alcotest.(check int)
      (t.Lint.name ^ " one step per edge")
      (stats.Explore.configs_visited - 1)
      stepped;
  (!leaves, !flagged)

(* A register protocol whose reads join vector clocks: splitter renaming,
   with every register claimed single-writer so that the swmr rule sees
   both ordered and concurrent writer pairs. *)
let splitter_target n =
  let i = Protocols.Splitter.renaming ~n in
  {
    Lint.name = "splitter-renaming";
    bindings = i.Protocols.Splitter.bindings;
    programs = List.init n i.Protocols.Splitter.program;
    budget = i.Protocols.Splitter.step_bound;
    single_writer = List.map fst i.Protocols.Splitter.bindings;
    bounds = [];
    subject = Lepower_obs.Json.Null;
  }

let walk_targets () =
  let cas ~k ~n =
    Lint.target_of_instance (Protocols.Cas_election.instance ~k ~n)
  in
  [
    (Lint.broken_swmr_fixture (), true);
    (Lint.broken_swmr_fixture ~flip:true (), true);
    (Lint.broken_cas_fixture ~n:3 (), true);
    (Lint.broken_cas_fixture ~n:4 (), true);
    (Lint.broken_cas_fixture ~n:5 (), false);
    (Lint.broken_cas_fixture ~n:6 (), false);
    (Lint.broken_cas_fixture ~n:7 (), false);
    (Lint.broken_cas_fixture ~n:4 ~flip:true (), true);
    (Lint.broken_cas_fixture ~n:5 ~flip:true (), false);
    (Lint.spin_fixture (), true);
    (cas ~k:5 ~n:4, true);
    (Lint.target_of_instance (Protocols.Bcl_election.instance ~k:4 ~n:3), true);
    (splitter_target 2, true);
  ]

let test_reuse_walks () =
  let flagged_total = ref 0 and complete = ref 0 in
  List.iter
    (fun ((t : Lint.target), static) ->
      let leaves, flagged = walk_differential t in
      Alcotest.(check bool) (t.Lint.name ^ " has leaves") true (leaves > 0);
      flagged_total := !flagged_total + flagged;
      if static then begin
        let summary = summary_of t in
        if summary.Summary.complete then incr complete;
        ignore (walk_differential ~summary t)
      end)
    (walk_targets ());
  (* The walks must exercise findings and the soundness cross-check, or
     agreeing on them shows nothing. *)
  Alcotest.(check bool) "some leaves have findings" true (!flagged_total > 0);
  Alcotest.(check bool) "some summaries are complete" true (!complete > 0)

(* Hand-built traces, each firing one rule (or one form of it). *)
let read_r ~time ~pid v = event ~time ~pid ~loc:"r" ~op:Op_codec.read_op ~result:v

let write_r ~time ~pid v =
  event ~time ~pid ~loc:"r" ~op:(Op_codec.write_op v) ~result:Value.unit

let cas_c ~time ~pid ~expected ~desired ~result =
  event ~time ~pid ~loc:"C" ~op:(Op_codec.cas_op ~expected ~desired) ~result

let hand_target ?(single_writer = []) ?(bounds = []) bindings =
  {
    Lint.name = "hand-built";
    bindings;
    programs =
      List.init 2 (fun _ -> Runtime.Program.(complete (return Value.unit)));
    budget = 4;
    single_writer;
    bounds;
    subject = Lepower_obs.Json.Null;
  }

(* A "sticky" register that (wrongly) takes every write. *)
let leaky_sticky =
  Memory.Spec.make ~type_name:"sticky" ~init:Objects.Sticky.bottom
    ~apply:(fun ~pid:_ state op ->
      match Op_codec.classify op with
      | Op_codec.Sticky_write v -> Ok (v, v)
      | _ -> Ok (state, state))

let rule_cases () =
  let bot = Objects.Cas_k.bottom and i = Value.int in
  let mwmr = [ ("r", Objects.Register.mwmr ~init:(i 0) ()) ] in
  let cas4 = [ ("C", Objects.Cas_k.spec ~k:4) ] in
  [
    ( "replay-divergence (rejected)",
      hand_target cas4,
      [
        cas_c ~time:0 ~pid:0 ~expected:bot ~desired:(i 0) ~result:bot;
        event ~time:1 ~pid:1 ~loc:"C" ~op:(Op_codec.swap_op (i 1))
          ~result:(i 0);
      ] );
    ( "replay-divergence (result)",
      hand_target cas4,
      [
        cas_c ~time:0 ~pid:0 ~expected:bot ~desired:(i 0) ~result:bot;
        cas_c ~time:1 ~pid:1 ~expected:(i 1) ~desired:(i 2) ~result:(i 1);
      ] );
    ( "sigma-history (not from ⊥)",
      hand_target
        [
          ( "C",
            Objects.Cas_k.generic_spec ~values:[ bot; i 0; i 1 ] ~init:(i 0) );
        ],
      [
        cas_c ~time:0 ~pid:0 ~expected:(i 0) ~desired:(i 1) ~result:(i 0);
        cas_c ~time:1 ~pid:1 ~expected:(i 1) ~desired:bot ~result:(i 1);
      ] );
    ( "sigma-history (outside Σ)",
      hand_target
        [
          ( "C",
            Objects.Cas_k.generic_spec
              ~values:[ bot; Value.sym "x"; i 0 ]
              ~init:bot );
        ],
      [
        cas_c ~time:0 ~pid:0 ~expected:bot ~desired:(Value.sym "x")
          ~result:bot;
        cas_c ~time:1 ~pid:1 ~expected:(Value.sym "x") ~desired:(i 0)
          ~result:(Value.sym "x");
      ] );
    ( "bounded-value (cas)",
      hand_target ~bounds:[ ("C", 3) ] cas4,
      [
        cas_c ~time:0 ~pid:0 ~expected:bot ~desired:(i 0) ~result:bot;
        cas_c ~time:1 ~pid:1 ~expected:(i 0) ~desired:(i 1) ~result:(i 0);
        cas_c ~time:2 ~pid:0 ~expected:(i 1) ~desired:(i 2) ~result:(i 1);
      ] );
    ( "bounded-value (declared)",
      hand_target ~bounds:[ ("W", 2) ]
        [ ("W", Objects.Swap_reg.spec ~init:(i 0) ()) ],
      List.init 3 (fun t ->
          event ~time:t ~pid:(t mod 2) ~loc:"W"
            ~op:(Op_codec.swap_op (i (t + 1)))
            ~result:(i t)) );
    ( "sticky-discipline",
      hand_target [ ("K", leaky_sticky) ],
      [
        event ~time:0 ~pid:0 ~loc:"K"
          ~op:(Op_codec.sticky_write_op (i 1))
          ~result:(i 1);
        event ~time:1 ~pid:1 ~loc:"K"
          ~op:(Op_codec.sticky_write_op (i 2))
          ~result:(i 2);
      ] );
    ( "reads-from (stale)",
      hand_target mwmr,
      [ write_r ~time:0 ~pid:0 (i 1); read_r ~time:1 ~pid:1 (i 99) ] );
    ( "reads-from (before any write)",
      hand_target mwmr,
      [ read_r ~time:0 ~pid:0 (i 0); read_r ~time:1 ~pid:1 (i 5) ] );
    ( "op-type (two families)",
      hand_target mwmr,
      [
        write_r ~time:0 ~pid:0 (i 1);
        event ~time:1 ~pid:1 ~loc:"r" ~op:(Op_codec.swap_op (i 2))
          ~result:(i 1);
      ] );
    ( "op-type (spec type)",
      hand_target mwmr,
      [
        read_r ~time:0 ~pid:0 (i 0);
        event ~time:1 ~pid:1 ~loc:"r"
          ~op:(Op_codec.cas_op ~expected:(i 0) ~desired:(i 1))
          ~result:(i 0);
      ] );
    ( "op-type (write response)",
      hand_target mwmr,
      [
        read_r ~time:0 ~pid:0 (i 0);
        event ~time:1 ~pid:1 ~loc:"r" ~op:(Op_codec.write_op (i 1))
          ~result:(i 0);
      ] );
    ( "swmr-discipline (concurrent)",
      hand_target ~single_writer:[ "r" ] mwmr,
      [ write_r ~time:0 ~pid:0 (i 1); write_r ~time:1 ~pid:1 (i 2) ] );
    ( "swmr-discipline (ordered)",
      hand_target ~single_writer:[ "r" ] mwmr,
      [
        write_r ~time:0 ~pid:0 (i 1);
        read_r ~time:1 ~pid:1 (i 1);
        write_r ~time:2 ~pid:1 (i 2);
      ] );
  ]

(* The rule each case is named after (its text up to " ("). *)
let case_rule name =
  match String.index_opt name ' ' with
  | Some j -> String.sub name 0 j
  | None -> name

(* An event on an unbound location, with findings of its own. *)
let detour =
  event ~time:0 ~pid:0 ~loc:"nowhere" ~op:Op_codec.read_op ~result:Value.unit

(* Structurally equal, physically new. *)
let fresh (e : Trace.event) =
  {
    Trace.time = e.Trace.time;
    pid = e.Trace.pid;
    loc = e.Trace.loc;
    op = e.Trace.op;
    result = e.Trace.result;
  }

(* Feed [traces] to one analyzer, in order; each call must give the
   one-shot findings of its trace. *)
let feed msg t traces =
  let a = Lint.analyzer t in
  List.iteri
    (fun j trace ->
      same_findings
        (Printf.sprintf "%s, trace %d" msg j)
        (one_shot t trace) (Lint.analyze a trace))
    traces

let test_reuse_rules () =
  List.iter
    (fun (name, t, trace) ->
      Alcotest.(check bool)
        (name ^ " fires its rule") true
        (List.exists
           (fun (f : Finding.t) -> f.Finding.rule = case_rule name)
           (one_shot t trace));
      let last = List.length trace - 1 in
      let tail = List.tl trace in
      let all_but_last = List.filteri (fun j _ -> j < last) trace in
      let mid = List.length trace / 2 in
      let copied = List.mapi (fun j e -> if j = mid then fresh e else e) trace in
      Alcotest.(check bool) "a fresh copy" false
        (List.nth copied mid == List.nth trace mid);
      (* The second trace diverges at the first event and is shorter; the
         third resumes from it and shares the rest with the first, which
         only an analyzer that forgot the first trace's tail gets right. *)
      feed (name ^ ", diverging at the first event") t
        [ trace; [ detour ]; detour :: tail; trace ];
      feed (name ^ ", diverging at the last event") t
        [ trace; all_but_last @ [ detour ]; trace; all_but_last @ [ detour ] ];
      feed (name ^ ", sharing an equal copy") t [ trace; copied; trace ])
    (rule_cases ())

let test_reuse_edges () =
  let mwmr = [ ("r", Objects.Register.mwmr ~init:(Value.int 0) ()) ] in
  (* Unbound locations get the rules' defaults, declared single-writer
     included. *)
  let t = hand_target ~single_writer:[ "ghost" ] mwmr in
  let ghost pid v =
    event ~time:pid ~pid ~loc:"ghost" ~op:(Op_codec.write_op v)
      ~result:Value.unit
  in
  let unbound = [ ghost 0 (Value.int 1); ghost 1 (Value.int 2) ] in
  check_rules "unbound location" [ "replay-divergence"; "swmr-discipline" ]
    (one_shot t unbound);
  feed "unbound location" t [ unbound; [ List.hd unbound ]; unbound ];
  (* The first trace steps pids 0 and 1; later ones bring pids 5 and 7,
     whose clocks the analyzer must grow, and whose reads join earlier
     writes. *)
  let t = hand_target ~single_writer:[ "r" ] mwmr in
  let w0 = write_r ~time:0 ~pid:0 (Value.int 1) in
  let r1 = read_r ~time:1 ~pid:1 (Value.int 1) in
  feed "higher pid later" t
    [
      [ w0; r1 ];
      [ w0; r1; write_r ~time:2 ~pid:5 (Value.int 3) ];
      [ w0; read_r ~time:1 ~pid:5 (Value.int 1); write_r ~time:2 ~pid:5 (Value.int 4) ];
      [ w0; write_r ~time:1 ~pid:7 (Value.int 2); read_r ~time:2 ~pid:1 (Value.int 2) ];
    ]

(* The counter shows what the reuse saves: cas k=5 n=4 has 24 schedules of
   4 events (96 event checks one-shot) over 4 + 12 + 24 + 24 = 64 edges. *)
let test_events_counter () =
  let r, events =
    counting_events (fun () ->
        Lint.lint_instance ~mode:Lint.Exhaustive
          (Protocols.Cas_election.instance ~k:5 ~n:4))
  in
  (match r.Report.stats with
  | Some s -> Alcotest.(check int) "schedules" 24 s.Report.schedules
  | None -> Alcotest.fail "expected run stats");
  Alcotest.(check int) "events analyzed" 64 events

let () =
  Alcotest.run "analysis"
    [
      ( "op-codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "objects agree" `Quick test_codec_objects_agree;
        ] );
      ( "trace-check",
        [
          Alcotest.test_case "clean" `Quick test_trace_clean;
          Alcotest.test_case "swmr violation" `Quick
            test_trace_swmr_violation;
          Alcotest.test_case "reads-from" `Quick test_trace_reads_from;
          Alcotest.test_case "op-type" `Quick test_trace_op_type;
        ] );
      ( "bounded-check",
        [
          Alcotest.test_case "history rules" `Quick test_history_rules;
          Alcotest.test_case "replay divergence" `Quick
            test_replay_divergence;
          Alcotest.test_case "declared bound" `Quick test_declared_bound;
        ] );
      ( "waitfree-check",
        [
          Alcotest.test_case "bounded" `Quick test_audit_bounded;
          Alcotest.test_case "exceeded" `Quick test_audit_exceeded;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean election" `Quick
            test_lint_clean_election;
          Alcotest.test_case "broken swmr fixture" `Quick test_fixture_swmr;
          Alcotest.test_case "broken cas fixture" `Quick test_fixture_cas;
          Alcotest.test_case "spin fixture" `Quick test_fixture_spin;
          Alcotest.test_case "rules filter" `Quick test_lint_rules_filter;
          Alcotest.test_case "truncation message" `Quick
            test_truncated_message;
        ] );
      ( "report",
        [ Alcotest.test_case "jsonl round trip" `Quick test_report_jsonl ] );
      ( "prefix-reuse",
        [
          Alcotest.test_case "real walks" `Quick test_reuse_walks;
          Alcotest.test_case "every rule" `Quick test_reuse_rules;
          Alcotest.test_case "edge cases" `Quick test_reuse_edges;
          Alcotest.test_case "events counter" `Quick test_events_counter;
        ] );
    ]
