module Value = Memory.Value
module Engine = Runtime.Engine
module Explore = Runtime.Explore
module Sched = Runtime.Sched
module Election = Protocols.Election

type target = {
  name : string;
  bindings : (string * Memory.Spec.t) list;
  programs : Runtime.Program.prim list;
  budget : int;
  single_writer : string list;
  bounds : (string * int) list;
  subject : Lepower_obs.Json.t;
}

let target_of_instance ?(subject = Lepower_obs.Json.Null)
    (t : Election.instance) =
  {
    name = t.Election.name;
    bindings = t.Election.bindings;
    programs = List.init t.Election.n t.Election.program;
    budget = t.Election.step_bound;
    single_writer = [];
    bounds = [];
    subject;
  }

type mode = Auto | Exhaustive | Sample of int
type static_mode = Static_off | Static_only | Static_and_dynamic

(* Exhaustive interleaving search is only tractable when the whole system
   performs a handful of operations; beyond that we sample seeded random
   schedules, matching the protocol harness's own checking strategy. *)
let exhaustive_feasible t = List.length t.programs * t.budget <= 12

let default_seeds = 64

let m_targets = Lepower_obs.Metrics.counter "lint.targets"
let m_schedules = Lepower_obs.Metrics.counter "lint.schedules_analyzed"
let m_events = Lepower_obs.Metrics.counter "lint.events_analyzed"
let m_findings = Lepower_obs.Metrics.counter "lint.findings"
let ph_check = Lepower_prof.Phase.make "lint.check"

(* --- trace analysis ------------------------------------------------------ *)

module Soundness = Lepower_static.Soundness

(* The per-trace analyzers of one target, prepared once: the bounded-value
   lint, the trace discipline checker and, given a complete summary, the
   static soundness cross-check. *)
type checker = {
  bounded : Bounded_check.ctx;
  discipline : Trace_check.ctx;
  soundness : Soundness.ctx option;
  subject_name : string;
}

let checker ?summary t =
  let store = Memory.Store.create t.bindings in
  {
    bounded = Bounded_check.prepare ~bounds:t.bounds store;
    discipline = Trace_check.prepare ~single_writer:t.single_writer store;
    soundness =
      (match summary with
      | Some (s : Lepower_static.Summary.t)
        when s.Lepower_static.Summary.complete ->
        Some (Soundness.prepare ~store s)
      | Some _ | None -> None);
    subject_name = t.name;
  }

(* The analyzers' states after one trace prefix. *)
type analysis = {
  bounded_st : Bounded_check.state;
  discipline_st : Trace_check.state;
  soundness_st : Soundness.state option;
}

let start c =
  {
    bounded_st = Bounded_check.init c.bounded;
    discipline_st = Trace_check.init c.discipline;
    soundness_st = Option.map Soundness.init c.soundness;
  }

let step c a e =
  {
    bounded_st = Bounded_check.step c.bounded a.bounded_st e;
    discipline_st = Trace_check.step c.discipline a.discipline_st e;
    soundness_st =
      (match (c.soundness, a.soundness_st) with
      | Some ctx, Some st -> Some (Soundness.step ctx st e)
      | _ -> None);
  }

let finish c a =
  Bounded_check.finish c.bounded a.bounded_st
  @ Trace_check.finish c.discipline a.discipline_st
  @
  match (c.soundness, a.soundness_st) with
  | Some ctx, Some st ->
    List.map
      (Static_check.soundness_finding ~name:c.subject_name)
      (Soundness.finish ctx st)
  | _ -> []

let failing t =
  let c = checker t in
  let fold init step finish ctx trace =
    finish ctx (List.fold_left (step ctx) (init ctx) trace)
  in
  fun view ->
    let trace = Engine.Config_view.trace view in
    match
      List.find_opt Finding.is_reportable
        (fold Bounded_check.init Bounded_check.step Bounded_check.finish
           c.bounded trace
        @ fold Trace_check.init Trace_check.step Trace_check.finish
            c.discipline trace)
    with
    | Some f -> Some (Printf.sprintf "%s: %s" f.Finding.rule f.Finding.detail)
    | None ->
      if Engine.Config_view.max_steps_per_proc view > t.budget then
        Some (Printf.sprintf "per-process step budget %d exceeded" t.budget)
      else None

(* The analyzer states along the last analyzed trace: [states.(i)] follows
   [events.(0 .. i)], for [i < depth].  A trace that starts with the same
   event records ([==]) resumes from the state after them.  The key is
   sound whatever produced the trace, because a state is a function of
   the event sequence alone: equal prefixes give equal states, and a
   physically equal event is an equal one.  The persistent explorer
   shares the event records of a common schedule prefix between sibling
   configurations, so over an exhaustive walk each DFS edge is stepped
   once; any other trace just misses and is stepped in full. *)
type analyzer = {
  check : checker;
  root : analysis;
  mutable events : Runtime.Trace.event array;
  mutable states : analysis array;
  mutable depth : int;
}

let analyzer ?summary t =
  let check = checker ?summary t in
  { check; root = start check; events = [||]; states = [||]; depth = 0 }

let analyze a trace =
  let rec shared i = function
    | e :: rest when i < a.depth && e == a.events.(i) -> shared (i + 1) rest
    | rest -> (i, rest)
  in
  let kept, rest = shared 0 trace in
  let depth = ref kept in
  let st = ref (if kept = 0 then a.root else a.states.(kept - 1)) in
  List.iter
    (fun e ->
      st := step a.check !st e;
      let i = !depth in
      if i = Array.length a.events then begin
        let cap = max 16 (2 * i) in
        let events = Array.make cap e and states = Array.make cap !st in
        Array.blit a.events 0 events 0 i;
        Array.blit a.states 0 states 0 i;
        a.events <- events;
        a.states <- states
      end;
      a.events.(i) <- e;
      a.states.(i) <- !st;
      depth := i + 1)
    rest;
  a.depth <- !depth;
  Lepower_obs.Metrics.incr m_events ~by:(!depth - kept);
  finish a.check !st

let lint ?(mode = Auto) ?(static = Static_off) ?static_options
    ?register_budget ?rules ?max_nodes ?max_steps ?(shrink = false) ?on_repro
    ?progress t =
  Lepower_obs.Metrics.incr m_targets;
  Lepower_obs.Span.with_span "lint.target"
    ~args:[ ("name", Lepower_obs.Json.String t.name) ]
  @@ fun () ->
  let store = Memory.Store.create t.bindings in
  let n = List.length t.programs in
  let findings = ref [] in
  (* The static plane: effect summaries, computed before (and, in
     [Static_only], instead of) any execution. *)
  let static_analysis =
    match static with
    | Static_off -> None
    | Static_only | Static_and_dynamic ->
      let options =
        match static_options with
        | Some o -> o
        | None ->
          (* A correct straight-line protocol must classify as [Bounded]
             within its own budget; loops hit the cap regardless. *)
          {
            Lepower_static.Absint.default_options with
            Lepower_static.Absint.depth_cap =
              max Lepower_static.Absint.default_options
                    .Lepower_static.Absint.depth_cap (2 * t.budget);
          }
      in
      Some (Static_check.analyze ~options ~bounds:t.bounds ~bindings:t.bindings
              t.programs)
  in
  let dynamic = static <> Static_only in
  (match static_analysis with
  | None -> ()
  | Some a ->
    findings :=
      Static_check.findings ?register_budget ~name:t.name ~budget:t.budget
        ~single_writer:t.single_writer ~bindings:t.bindings a
      @ !findings);
  let max_proc_steps = ref 0 in
  let truncated = ref 0 in
  let schedules = ref 0 in
  let module View = Engine.Config_view in
  let observe_steps view =
    let s = View.max_steps_per_proc view in
    if s > !max_proc_steps then max_proc_steps := s
  in
  let exhaustive =
    match mode with
    | Exhaustive -> true
    | Sample _ -> false
    | Auto -> exhaustive_feasible t
  in
  (* Soundness cross-check: every analyzed execution must stay inside the
     effect summary (locations in footprints, states in Σ̂) — a violation
     is an abstract-interpreter bug, not a protocol bug.  Runs that
     record certificates are judged by the dynamic rules alone, as their
     replays are. *)
  let summary =
    match (static, static_analysis) with
    | Static_and_dynamic, Some a when exhaustive || on_repro = None ->
      Some a.Static_check.summary
    | _ -> None
  in
  (* The trace lints are inherently global-order checks, so the hook
     materializes the trace through the view.  Lint's exhaustive path
     runs the plain persistent explorer with no dedup/POR (the lints need
     every interleaving's order anyway), so this is sound — and the
     reason lint hooks must never be combined with the reductions.  Its
     terminals share the event records of their common schedule prefix,
     so the analyzer steps each DFS edge once (see [analyzer]). *)
  let analyzer = analyzer ?summary t in
  let findings_of view =
    let tok = Lepower_prof.Phase.enter ph_check in
    let fs = analyze analyzer (View.trace view) in
    Lepower_prof.Phase.leave tok;
    fs
  in
  let note fs view =
    incr schedules;
    Lepower_obs.Metrics.incr m_schedules;
    observe_steps view;
    findings := fs @ !findings;
    match progress with Some f -> f !schedules | None -> ()
  in
  let analyze view = note (findings_of view) view in
  let config () = Engine.init store t.programs in
  (if not dynamic then ()
   else if exhaustive then begin
     let max_steps =
       Option.value ~default:((t.budget * max n 1 * 2) + 8) max_steps
     in
     let stats =
       Explore.explore
         ~options:
           {
             Explore.Options.default with
             max_steps;
             on_terminal = Some analyze;
             on_truncated =
               Some
                 (fun view ->
                   incr truncated;
                   observe_steps view);
           }
         (config ())
     in
     ignore stats.Explore.terminals
   end
   else
     let seeds = match mode with Sample s -> s | _ -> default_seeds in
     let max_steps =
       Option.value ~default:((t.budget * max n 1 * 2) + 1000) max_steps
     in
     let recorded = ref false in
     for seed = 0 to seeds - 1 do
       let sched = Sched.random ~seed in
       match on_repro with
       | None ->
         let outcome = Engine.run ~max_steps ~sched (config ()) in
         if outcome.Engine.hit_step_limit then incr truncated;
         analyze (View.of_config outcome.Engine.final)
       | Some report ->
         let outcome, cert =
           Runtime.Repro.record ~subject:t.subject ~seed ~max_steps ~sched
             (config ())
         in
         if outcome.Engine.hit_step_limit then incr truncated;
         let final_view = View.of_config outcome.Engine.final in
         let fs = findings_of final_view in
         note fs final_view;
         let failed =
           List.exists Finding.is_reportable fs
           || outcome.Engine.hit_step_limit
           || View.max_steps_per_proc final_view > t.budget
         in
         if failed && not !recorded then begin
           recorded := true;
           let message =
             match List.find_opt Finding.is_reportable fs with
             | Some f ->
               Printf.sprintf "%s: %s" f.Finding.rule f.Finding.detail
             | None ->
               if outcome.Engine.hit_step_limit then
                 "run hit the step limit (possible livelock)"
             else "per-process step budget exceeded"
           in
           let cert = Runtime.Repro.with_message cert message in
           let cert, stats =
             if shrink then
               (* [hit_step_limit] is not recoverable from a replayed
                  configuration, but a truncated run's process stepped
                  past the budget, which [failing] sees. *)
               let fails = failing t in
               let cert, stats =
                 Runtime.Repro.shrink
                   ~failing:(fun view -> fails view <> None)
                   ~config0:(config ()) cert
               in
               (cert, Some stats)
             else (cert, None)
           in
           report cert stats
         end
     done);
  (* Wait-freedom: the symbolic audit flags programs that admit an
     unbounded adversarial op sequence; executions corroborate (or
     refute) the flag — see Waitfree_check's doc on over-approximation. *)
  let statically_waitfree =
    (* The pre-pass: a complete summary whose every process is statically
       bounded within budget subsumes the symbolic audit — the audit
       walks the same trees against a (no larger) pooled responder, so it
       could only confirm.  All-or-nothing: auditing a subset of
       processes would see a differently-seeded response pool. *)
    match static_analysis with
    | Some a when a.Static_check.summary.Lepower_static.Summary.complete ->
      let bounds_ok (p : Lepower_static.Summary.per_pid) =
        match p.Lepower_static.Summary.op_bound with
        | Lepower_static.Summary.Bounded b when b <= t.budget -> Some (p, b)
        | Lepower_static.Summary.Bounded _ | Lepower_static.Summary.Unbounded
          ->
          None
      in
      let pids =
        List.filter_map bounds_ok
          a.Static_check.summary.Lepower_static.Summary.per_pid
      in
      if
        List.length pids
        = List.length a.Static_check.summary.Lepower_static.Summary.per_pid
      then
        Some
          (List.map
             (fun ((p : Lepower_static.Summary.per_pid), b) ->
               (p.Lepower_static.Summary.pid, Waitfree_check.Bounded b))
             pids)
      else None
    | _ -> None
  in
  let audits =
    if not dynamic then []
    else
      match statically_waitfree with
      | Some audits -> audits
      | None ->
        Waitfree_check.audit_programs ?max_nodes ~store ~budget:t.budget
          t.programs
  in
  let corroborated = !truncated > 0 || !max_proc_steps > t.budget in
  List.iter
    (fun (pid, verdict) ->
      let loc = Printf.sprintf "p%d" pid in
      match verdict with
      | Waitfree_check.Exceeded { budget; witness } ->
        let path = Waitfree_check.witness_summary witness in
        if corroborated then
          findings :=
            Finding.v ~rule:"wait-freedom" ~loc
              "program admits > %d ops under an adversarial responder \
               (witness: %s), corroborated by execution (%d truncated runs, \
               max %d steps/proc observed)"
              budget path !truncated !max_proc_steps
            :: !findings
        else
          findings :=
            Finding.v ~severity:Finding.Info ~rule:"wait-freedom" ~loc
              "symbolic audit exceeds budget %d (witness: %s) but no \
               analyzed execution corroborates it (max %d steps/proc \
               observed); recorded, not reported"
              budget path !max_proc_steps
            :: !findings
      | Waitfree_check.Bounded b ->
        if !max_proc_steps > b then
          findings :=
            Finding.v ~rule:"waitfree-mismatch" ~loc
              "audited bound %d ops, but an execution performed %d — the \
               responder model missed reachable responses"
              b !max_proc_steps
            :: !findings
      | Waitfree_check.Inconclusive { explored } ->
        findings :=
          Finding.v ~severity:Finding.Info ~rule:"wait-freedom" ~loc
            "audit inconclusive after %d explored nodes" explored
          :: !findings)
    audits;
  if !max_proc_steps > t.budget then
    findings :=
      Finding.v ~rule:"wait-freedom" ~loc:t.name
        "an analyzed execution performed %d steps on one process, above \
         the declared budget %d"
        !max_proc_steps t.budget
      :: !findings;
  let findings =
    Finding.dedup !findings
    |> (fun fs ->
         (* Cross-plane dedup: when a static rule and its dynamic
            counterpart flag the same location, the root cause is one —
            keep the static finding (it carries the no-schedule-needed
            evidence) and drop the corroborating dynamic one.  Only
            active with the static plane on, so plain lint output is
            untouched. *)
         if static = Static_off then fs
         else
           let static_key (f : Finding.t) =
             if String.length f.Finding.rule >= 7
                && String.sub f.Finding.rule 0 7 = "static-"
             then Some (f.Finding.rule, f.Finding.loc)
             else None
           in
           let statics = List.filter_map static_key fs in
           List.filter
             (fun (f : Finding.t) ->
               match Static_check.counterpart f.Finding.rule with
               | Some s ->
                 not
                   (List.exists
                      (fun (rule, loc) ->
                        String.equal rule s && String.equal loc f.Finding.loc)
                      statics)
               | None -> true)
             fs)
    |> List.filter (fun (f : Finding.t) ->
           match rules with
           | None -> true
           | Some rs -> List.exists (String.equal f.Finding.rule) rs)
  in
  Lepower_obs.Metrics.incr m_findings ~by:(List.length findings);
  {
    Report.subject = t.name;
    findings;
    stats =
      Some
        {
          Report.schedules = !schedules;
          truncated = !truncated;
          max_proc_steps = !max_proc_steps;
          exhaustive = exhaustive && dynamic;
        };
    audits;
  }

let lint_instance ?mode ?static ?rules ?max_nodes ?max_steps ?subject instance
    =
  lint ?mode ?static ?rules ?max_nodes ?max_steps
    (target_of_instance ?subject instance)

(* --- seeded-bug fixtures ---------------------------------------------- *)

(* The subject descriptor [Repro_subject.resolve] rebuilds fixtures
   from; kept next to the fixtures so the two stay in sync. *)
let fixture_subject ?n ?(flip = false) name =
  Lepower_obs.Json.Obj
    ([ ("kind", Lepower_obs.Json.String "fixture");
       ("name", Lepower_obs.Json.String name) ]
    @ (match n with None -> [] | Some n -> [ ("n", Lepower_obs.Json.Int n) ])
    @ if flip then [ ("flip", Lepower_obs.Json.Bool true) ] else [])

let broken_swmr_fixture ?(flip = false) () =
  (* Two writers share one register that the protocol treats as
     single-writer — but it was (wrongly) bound to the multi-writer spec,
     so the object itself cannot catch the discipline violation.  The
     trace checker must.

     [flip] is the DFS-adversarial variant: the second writer only
     writes when its read still sees the initial value, so the
     violation needs p1 scheduled {e before} p0's write — the schedule
     order DFS tries {e last} among the first decisions — and pad
     readers inflate the non-violating p0-first subtree the exhaustive
     walk must exhaust before getting there.  Randomized schedulers hit
     the required order in a handful of runs; this is the honest
     benchmark fixture for fuzz-vs-DFS time-to-first-violation. *)
  let init = Value.int (-1) in
  let program pid =
    let open Runtime.Program in
    complete
      (let* () = Objects.Register.write "r" (Value.int pid) in
       let* v = Objects.Register.read "r" in
       return v)
  in
  let flip_writer =
    let open Runtime.Program in
    complete
      (let* v = Objects.Register.read "r" in
       if Value.equal v init then
         let* () = Objects.Register.write "r" (Value.int 1) in
         return (Value.int 1)
       else return v)
  in
  let pad_reader =
    let open Runtime.Program in
    complete
      (let* _ = Objects.Register.read "r" in
       let* v = Objects.Register.read "r" in
       return v)
  in
  {
    name = (if flip then "fixture-broken-swmr-flip" else "fixture-broken-swmr");
    bindings = [ ("r", Objects.Register.mwmr ~init ()) ];
    programs =
      (* Two pad readers put the p0-first subtree at ~25k schedules —
         enough that exhaustive DFS pays for its ordering, small enough
         that the benchmark still terminates quickly. *)
      (if flip then [ program 0; flip_writer; pad_reader; pad_reader ]
       else [ program 0; program 1 ]);
    budget = 2;
    single_writer = [ "r" ];
    bounds = [];
    subject = fixture_subject ~flip "broken-swmr";
  }

(* Attempts per pad process in the flip variant of [broken_cas_fixture]:
   with p pads the violation-free subtrees DFS must exhaust hold
   (2 + p*flip_pad_ops)! / (flip_pad_ops!)^p schedules each. *)
let flip_pad_ops = 4

let broken_cas_fixture ?(n = 3) ?(flip = false) () =
  (* The register was provisioned as a cas(n+1) but the protocol's space
     certificate claims cas(3): under any schedule running p0; p1; p2 in
     that relative order the chain ⊥→0→1→2 stores 4 distinct values
     (counting ⊥), one more than the declared alphabet admits.  With
     [n > 3] the extra processes extend the chain but are not needed for
     the violation — which is exactly what makes this the shrinker's
     reference fixture: of an [n]-decision failing schedule only the
     first three processes' steps must survive minimization.

     [flip] is the DFS-adversarial variant: the chain runs in
     {e descending} pid order — p2 cas(⊥→1), p1 cas(1→0), p0 cas(0→2) —
     and only the {e last} link stores the escaping value 2.  Each
     process gets a single cas attempt, so any schedule that runs p0 or
     p1 before its expected value is present burns that link and the
     escape never happens: the violation lives only in schedules whose
     first chain step is p2's — the exact opposite of the ascending pid
     order DFS tries first, so the exhaustive walk must exhaust the
     entire (violation-free) p0-first and p1-first subtrees before it
     can win, while a randomized scheduler hits the descending order
     with probability ~1/6 per run.  Processes beyond the first three
     anchor their expected value one above anything ever stored, so
     they never succeed; each makes [flip_pad_ops] attempts, purely to
     inflate the subtrees DFS drowns in. *)
  if n < 3 then invalid_arg "broken_cas_fixture: needs n >= 3";
  let program pid =
    let open Runtime.Program in
    if flip && pid >= 3 then
      (* pad: [pid + 1] is never stored, these cas never fire *)
      let rec attempts left =
        if left = 1 then
          let* prev =
            Objects.Cas_k.cas "C" ~expected:(Value.int (pid + 1))
              ~desired:(Value.int pid)
          in
          return prev
        else
          let* _ =
            Objects.Cas_k.cas "C" ~expected:(Value.int (pid + 1))
              ~desired:(Value.int pid)
          in
          attempts (left - 1)
      in
      complete (attempts flip_pad_ops)
    else
      let expected, desired =
        if flip then
          match pid with
          | 2 -> (Objects.Cas_k.bottom, Value.int 1)
          | 1 -> (Value.int 1, Value.int 0)
          | _ -> (Value.int 0, Value.int 2)
        else
          ( (if pid = 0 then Objects.Cas_k.bottom else Value.int (pid - 1)),
            Value.int pid )
      in
      complete
        (let* prev = Objects.Cas_k.cas "C" ~expected ~desired in
         return prev)
  in
  {
    name = (if flip then "fixture-broken-cas-flip" else "fixture-broken-cas");
    bindings = [ ("C", Objects.Cas_k.spec ~k:(n + 1)) ];
    programs = List.init n program;
    budget = (if flip && n > 3 then flip_pad_ops else 1);
    single_writer = [];
    bounds = [ ("C", 3) ];
    subject = fixture_subject ~n ~flip "broken-cas";
  }

let spin_fixture () =
  (* A repeat_until loop whose exit condition only the environment can
     satisfy — and nobody ever does: the canonical unbounded op sequence
     the wait-freedom auditor exists to flag. *)
  let program =
    let open Runtime.Program in
    complete
      (let* v =
         repeat_until (fun () ->
             let* v = Objects.Register.read "flag" in
             if Value.equal v (Value.sym "go") then return (Some v)
             else return None)
       in
       return v)
  in
  {
    name = "fixture-spin";
    bindings = [ ("flag", Objects.Register.mwmr ~init:(Value.sym "wait") ()) ];
    programs = [ program ];
    budget = 4;
    single_writer = [];
    bounds = [];
    subject = fixture_subject "spin";
  }

let fixtures () = [ broken_swmr_fixture (); broken_cas_fixture (); spin_fixture () ]

(* --- fuzzing ----------------------------------------------------------- *)

let fuzz_target ?runs ?seed ?max_steps ?plan ?kind ?shrink ?progress
    (t : target) =
  let store = Memory.Store.create t.bindings in
  let n = List.length t.programs in
  let max_steps =
    Option.value ~default:((t.budget * max n 1 * 2) + 1000) max_steps
  in
  (* [Repro_subject.of_target] resolves the same predicate, so the
     certificate a fuzz campaign emits fails under exactly the predicate
     replay re-checks. *)
  Runtime.Fuzz.campaign ?runs ?seed ~max_steps ?plan ?kind ?shrink ?progress
    ~subject:t.subject ~failing:(failing t) (fun () ->
      Engine.init store t.programs)
