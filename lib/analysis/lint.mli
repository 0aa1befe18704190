(** The lint driver: run every analyzer over a protocol (or seeded-bug
    fixture) and collect one {!Report.t}.

    A {!target} is anything executable by the engine — an
    {!Protocols.Election.instance} ({!target_of_instance}) or a
    hand-built fixture.  The driver

    - obtains executions (exhaustively when the instance is small enough,
      otherwise over sampled seeded schedules),
    - feeds every analyzed trace to {!Trace_check} and {!Bounded_check}
      through one {!analyzer}, which resumes from the analyzer state of
      the prefix the trace shares with the previous one: exhaustive lint
      costs one analyzer step per DFS edge of the walk, not one per
      event of every schedule,
    - runs the symbolic {!Waitfree_check} audit and {e corroborates} it
      against the executions actually observed: a symbolic [Exceeded]
      becomes an error only when some execution also truncated or
      overran the budget (the audit's adversarial responder
      over-approximates, so an uncorroborated [Exceeded] is recorded at
      [Info] severity, not reported),
    - dedups findings and applies the [?rules] filter. *)

type target = {
  name : string;
  bindings : (string * Memory.Spec.t) list;
  programs : Runtime.Program.prim list;
  budget : int;
      (** claimed wait-freedom bound: max shared-memory ops per process *)
  single_writer : string list;
      (** locations the protocol {e claims} are single-writer, for the
          trace discipline checker (independent of whether the bound
          spec enforces it) *)
  bounds : (string * int) list;
      (** claimed space bounds [loc, k] overriding the spec's own, for
          the bounded-value lint *)
  subject : Lepower_obs.Json.t;
      (** opaque instance descriptor stored in recorded
          {!Runtime.Repro} certificates so [lepower replay] can rebuild
          the target (see [Repro_subject]); [Null] when the target is
          not rebuildable by name *)
}

val target_of_instance :
  ?subject:Lepower_obs.Json.t -> Protocols.Election.instance -> target
(** Budget is the instance's [step_bound]; no extra single-writer or
    bound claims.  [subject] defaults to [Null]. *)

type mode =
  | Auto  (** [Exhaustive] iff [n * budget <= 12], else [Sample 64] *)
  | Exhaustive
  | Sample of int  (** that many seeded random schedules *)

(** The static analysis plane ({!Static_check}): *)
type static_mode =
  | Static_off  (** dynamic analyzers only (the default; output unchanged) *)
  | Static_only
      (** static rules only — no schedule is executed, no symbolic audit
          runs; the report's [stats.schedules] is [0] *)
  | Static_and_dynamic
      (** both planes, plus: every analyzed execution is cross-checked
          against the effect summary ([static-soundness]); a complete
          summary with every process statically bounded within budget
          replaces the symbolic wait-freedom audit (the pre-pass); and a
          dynamic finding whose static counterpart flagged the same
          location is dropped, so each root cause reports once *)

val lint :
  ?mode:mode ->
  ?static:static_mode ->
  ?static_options:Lepower_static.Absint.options ->
  ?register_budget:int ->
  ?rules:string list ->
  ?max_nodes:int ->
  ?max_steps:int ->
  ?shrink:bool ->
  ?on_repro:(Runtime.Repro.t -> Runtime.Repro.shrink_stats option -> unit) ->
  ?progress:(int -> unit) ->
  target ->
  Report.t
(** [rules] keeps only findings whose rule name is listed (default: all).
    [max_nodes] caps the symbolic audit ({!Waitfree_check.audit});
    [max_steps] overrides the per-execution step cap.

    [static] (default [Static_off]) selects the {!static_mode};
    [static_options] overrides the abstract interpreter's caps (default:
    {!Lepower_static.Absint.default_options} with the depth cap raised
    to at least twice the target's budget); [register_budget] turns the
    register accountant's census into an error when the protocol's
    static footprint exceeds it.

    [on_repro]: in sampled mode, every seeded run is recorded through
    {!Runtime.Repro.record}; the first {e failing} run (reportable
    finding, step-limit hit, or per-process budget overrun) has its
    certificate — carrying the target's [subject] and the failure
    message — handed to the callback, after delta-debugging minimization
    when [shrink] is [true] (the shrink stats come along; [None] when
    shrinking was off).  Exhaustive mode never records: use
    {!Protocols.Election.explore_repro} for whole-space certificates.

    [progress]: called after every analyzed schedule with the count so
    far, in both modes — drive heartbeats from here. *)

val lint_instance :
  ?mode:mode ->
  ?static:static_mode ->
  ?rules:string list ->
  ?max_nodes:int ->
  ?max_steps:int ->
  ?subject:Lepower_obs.Json.t ->
  Protocols.Election.instance ->
  Report.t

(** {1 Trace analysis}

    The per-trace rules of a target — {!Bounded_check}, {!Trace_check}
    and, under a complete static summary, the [static-soundness]
    cross-check — prepared once per target and run in their step form. *)

val failing : target -> Runtime.Engine.Config_view.t -> string option
(** The target's failure predicate: [Some "rule: detail"] for the first
    reportable {!Bounded_check} or {!Trace_check} finding of the view's
    trace (in that order), else [Some] when a process exceeded the
    target's step budget, else [None].  Partial application prepares the
    analyzers once; the result keeps no state between calls.  Sampled
    lint shrinks with it, {!fuzz_target} fuzzes with it, and
    [Repro_subject.of_target] replays with it, so a certificate fails
    under the predicate that recorded it. *)

type analyzer
(** A target's analyzers plus the analyzer state after every event of
    the last trace analyzed. *)

val analyzer : ?summary:Lepower_static.Summary.t -> target -> analyzer
(** [summary] adds the soundness cross-check when it is complete. *)

val analyze : analyzer -> Runtime.Trace.t -> Finding.t list
(** The trace's findings: equal to
    [Bounded_check.check ~bounds ~store trace @ Trace_check.check
    ~single_writer ~store trace], followed by the summary's
    [static-soundness] findings.  Only the events past the longest prefix
    whose records are physically equal ([==]) to the last trace's are
    stepped, from the state the analyzer kept after that prefix; their
    number is added to the [lint.events_analyzed] counter.  Physical
    identity is a sound key whatever produced the trace: the state after
    a prefix depends on its events alone.  Exhaustive lint's persistent
    walk shares the event records of a common schedule prefix, so it
    pays one step per DFS edge rather than one per event of every
    schedule; a trace from anywhere else misses and is stepped in full.
    Not reentrant: one analyzer per sequential caller. *)

(** {1 Seeded-bug fixtures}

    Each fixture plants one intended defect and must trigger exactly its
    rule — the analyzer's regression suite and the CLI's demo subjects. *)

val broken_swmr_fixture : ?flip:bool -> unit -> target
(** Two processes write one location declared single-writer (but bound to
    a multi-writer spec, so only the trace checker can object):
    [swmr-discipline].  [flip] (default [false]) is the DFS-adversarial
    variant: the second writer writes only when scheduled before the
    first one's write — the order DFS tries last — and two pad readers
    inflate the violation-free subtree the exhaustive walk must exhaust
    first.  The fuzz benchmark's second fixture. *)

val broken_cas_fixture : ?n:int -> ?flip:bool -> unit -> target
(** A cas(n+1) register claimed to be cas(3) driven by [n] processes
    (default 3, the minimum): any schedule running p0, p1, p2 in that
    relative order feeds it 4 distinct values: [bounded-value].  Larger
    [n] pads the schedule with processes irrelevant to the violation —
    the shrinker's reference workload.  [flip] (default [false])
    reverses the chain (p2's cas, then p1's, then p0's) so the violating
    order is the one depth-first search reaches {e last}; with [n > 3]
    the pad processes can never cas successfully and exist purely to
    blow up the subtrees DFS must exhaust before winning — the fuzz
    benchmark's headline fixture. *)

val spin_fixture : unit -> target
(** A process spinning on a flag nobody sets: the symbolic audit exceeds
    the budget and execution corroborates (every run truncates):
    [wait-freedom]. *)

val fixtures : unit -> target list

(** {1 Fuzzing} *)

val fuzz_target :
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?plan:Runtime.Faults.plan ->
  ?kind:Runtime.Fuzz.sched_kind ->
  ?shrink:bool ->
  ?progress:(Runtime.Fuzz.progress -> unit) ->
  target ->
  Runtime.Fuzz.outcome
(** Fuzz a target with {!Runtime.Fuzz.campaign}: each run starts from a
    fresh configuration of the target's bindings and programs; a final
    configuration fails under {!failing} (the predicate
    [Repro_subject.of_target] resolves, so the emitted certificate —
    carrying the target's [subject] — replays through [lepower
    replay]).  Defaults follow
    {!Runtime.Fuzz.campaign}; [max_steps] defaults to the same
    per-execution cap sampled lint uses. *)
