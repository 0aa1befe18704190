(** Common harness for leader-election protocols.

    The paper's leader election task (§2): every participating process
    proposes its own identity; all processes must elect one common
    identity.  Required properties:

    - {b Consistent}: distinct processes never elect distinct identities;
    - {b Wait-free}: each process elects after a finite number of its own
      steps, regardless of other processes' speed or crashes;
    - {b Valid}: the elected identity belongs to a process that proposed
      itself (took at least one step).

    An {!instance} packages a protocol for [n] processes; the checkers
    validate outcomes against the three properties, under sampled random
    schedules, crash adversaries, and (for small instances) every
    interleaving. *)

module Value := Memory.Value

type instance = {
  name : string;
  n : int;  (** number of processes *)
  bindings : (string * Memory.Spec.t) list;  (** shared objects *)
  program : int -> Runtime.Program.prim;  (** code of process [pid] *)
  step_bound : int;
      (** wait-freedom certificate: max shared-memory operations any single
          process may need *)
}

val config : instance -> Runtime.Engine.config

val check_outcome :
  instance -> Runtime.Engine.outcome -> (unit, string) result
(** Agreement + validity + per-process step bound + no faulty processes.
    Crashed processes are exempt from deciding; all others must decide the
    same pid, and that pid must appear in the trace (validity). *)

val check_config :
  instance -> Runtime.Engine.Config_view.t -> (unit, string) result
(** The terminal-state form of {!check_outcome}: what {!explore_all}
    runs on every complete schedule.  Takes the backend-neutral
    {!Runtime.Engine.Config_view.t}, reading only statuses, decisions
    and step counts (order-insensitive flat-array accessors — zero-copy
    on the arena backend, and sound under every explorer reduction).
    Expects a finished run — still-running processes are reported as
    incomplete. *)

val check_partial :
  instance -> Runtime.Engine.Config_view.t -> (unit, string) result
(** Like {!check_config} but tolerant of still-running processes: only
    faults, disagreement among decisions already made, and budget
    overruns fail.  This is the failure predicate replayed schedule
    {e prefixes} are judged by ({!Runtime.Repro.shrink} candidates — an
    incomplete run must not count as a violation, or shrinking would
    trivialize). *)

val run :
  instance -> sched:Runtime.Sched.t -> (Runtime.Engine.outcome, string) result
(** Run to completion under the scheduler and check the outcome. *)

val run_random : instance -> seed:int -> (int, string) result
(** Run under a seeded uniform scheduler; returns the elected leader. *)

val run_with_crashes :
  instance -> seed:int -> crashed:int list -> (int, string) result
(** Crash the given pids at the start (they never take a step); the
    survivors must still elect among themselves. *)

val run_with_crashes_outcome :
  instance ->
  seed:int ->
  crashed:int list ->
  (Runtime.Engine.outcome, string) result
(** Like {!run_with_crashes} but returning the whole checked outcome —
    the CLI uses it to export the execution trace. *)

val explore_all : instance -> max_steps:int -> (int, string) result
(** Exhaustively check every interleaving (small instances only).
    Returns the number of complete executions enumerated. *)

val explore_stats :
  ?options:Runtime.Explore.Options.t ->
  instance ->
  max_steps:int ->
  (Runtime.Explore.stats, string) result
(** Like {!explore_all} but returning the full exploration statistics
    (terminals, truncations, choice points, configurations visited).
    [options] carries the explorer knobs ([options.max_steps] is
    overridden by the required [max_steps]); its [on_terminal] and
    [on_truncated] hooks are ignored, since {!Runtime.Explore.check_all}
    claims both for the predicate.  To lint every complete trace, as
    [Lepower_check] does, hand the linter to [on_terminal] of
    {!Runtime.Explore.explore}.

    [options.crash_faults] additionally lets the adversary fail-stop
    processes at every choice point.  [dedup]/[por]/[domains] request the
    explorer's opt-in reductions; the election predicate is
    trace-order-insensitive (final statuses, decisions, per-pid
    projections only), so they preserve the verdict exactly. *)

val explore_repro :
  ?options:Runtime.Explore.Options.t ->
  ?subject:Lepower_obs.Json.t ->
  instance ->
  max_steps:int ->
  ( Runtime.Explore.stats,
    Runtime.Explore.violation * Runtime.Repro.t )
  result
(** Like {!explore_stats} but a failing verdict carries the structured
    {!Runtime.Explore.violation} {e and} a replayable schedule
    certificate built from the explorer's decision path ([sched] field
    ["explore"]).  [subject] is stored opaquely in the certificate so
    [lepower replay] can rebuild the instance. *)

val fuzz :
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?plan:Runtime.Faults.plan ->
  ?kind:Runtime.Fuzz.sched_kind ->
  ?shrink:bool ->
  ?subject:Lepower_obs.Json.t ->
  ?progress:(Runtime.Fuzz.progress -> unit) ->
  instance ->
  Runtime.Fuzz.outcome
(** Fuzz the instance with {!Runtime.Fuzz.campaign}: adversarial
    schedules (and, with a non-trivial [plan], injected faults) against
    {!check_partial} — so crashed or stalled processes are fine and only
    genuine disagreement, faulty processes, or budget overruns count as
    violations.  Note that under fault injection a {e correct} protocol
    may legitimately fail (a lost write breaks real protocols — that is
    the point of the robustness harness); the emitted certificate
    replays the faults along with the schedule.  [max_steps] defaults to
    the crash-run cap ([step_bound * n * 2 + 1000]); other defaults
    follow {!Runtime.Fuzz.campaign}. *)

val leader_of : Runtime.Engine.outcome -> Value.t option
(** The common decision, if any process decided. *)
