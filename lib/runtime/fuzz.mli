(** Adversarial-schedule fuzzing: find schedule-dependent violations by
    randomized search instead of exhaustive DFS.

    [Explore] proves small instances correct; this module attacks large
    ones.  A {b campaign} replays a subject from a fresh configuration
    under a seeded adversarial scheduler — uniform random walk, PCT
    priority scheduling ({!Sched.pct}), or a starvation adversary
    ({!Sched.starve}) — optionally injecting faults from a
    {!Faults.plan}, until a user predicate flags a violating final
    configuration or the run budget is exhausted.

    Everything is deterministic in the seed: run [i] of a campaign uses
    [seed + i] for both the scheduler and the fault rolls, and every
    decision — scheduling choices {e and} injected faults — is logged in
    {!Repro.decision} form.  A violation therefore ships as an ordinary
    {!Repro} certificate (auto-shrunk with {!Repro.shrink} by default)
    that [lepower replay] reproduces bit for bit, faults re-injected.

    Producers live above: [Protocols.Election.fuzz] fuzzes an election
    instance, [Lepower_check.Lint.fuzz_target] any lint target, and the
    [lepower fuzz] CLI fronts both.

    Observability: a ["fuzz.campaign"] span plus [fuzz.runs],
    [fuzz.violations] and [faults.injected] counters (all no-ops unless
    metrics are enabled). *)

(** Which adversarial scheduler drives each run. *)
type sched_kind =
  | Random_walk  (** uniform over enabled pids ({!Sched.random}) *)
  | Pct of { depth : int }
      (** PCT with [depth - 1] priority-change points ({!Sched.pct}) *)
  | Starve of { victim : int; stall : int }
      (** random walk, but [victim] is withheld for the first [stall]
          executed steps ({!Sched.starve}) *)

val kind_name : sched_kind -> string
(** ["random"], ["pct"] or ["starve"] — the CLI's [--sched] values. *)

val instantiate : sched_kind -> seed:int -> max_steps:int -> Sched.t
(** The concrete scheduler a run with this seed uses (fresh state). *)

(** One fuzz run.  [decisions] is the complete adversary log, oldest
    first, faults included; [injected] counts the fault decisions in it;
    [sched_name] is the instantiated scheduler's name prefixed with
    ["fuzz:"] (recorded in certificates). *)
type run = {
  final : Engine.config;
  decisions : Repro.decision list;
  sched_name : string;
  injected : int;
  hit_step_limit : bool;
}

val run :
  ?max_steps:int ->
  ?plan:Faults.plan ->
  kind:sched_kind ->
  seed:int ->
  Engine.config ->
  run
(** One deterministic adversarial run: at each decision point
    {!Faults.decide} rolls for an injection (plan defaults to
    {!Faults.none}) and otherwise consults the scheduler; the decision
    is executed with {!Faults.apply} and logged.  [observe] fires for
    every decision that scheduled a process — lost writes included, the
    scheduler cannot tell them apart any better than the process can.
    Stops when no process is running, the scheduler halts, or [max_steps]
    (default 1000) store operations have run.  Same [seed] (with equal
    [kind]/[plan]/[max_steps] and initial configuration) ⇒ identical
    decision log.

    Runs execute on the persistent engine.  A fuzz run moves forward
    only, so the arena machine's undo buys nothing and its per-run
    lowering is pure overhead: a 10,000-run PCT campaign on cas k=12
    n=11 took 0.14–0.21 s persistent against 0.20–0.31 s on the arena
    machine (2-vCPU host; EXPERIMENTS.md E17). *)

(** Live campaign progress, delivered to [campaign]'s [?progress] once
    per completed run: totals so far plus the configured run budget, the
    inputs a heartbeat needs for rates and ETA. *)
type progress = {
  p_run : int;  (** runs completed so far *)
  p_runs_total : int;
  p_injected : int;
  p_steps : int;
}

(** Campaign verdict.  [runs] is how many runs executed (the campaign
    stops at the first violation, so this is the time-to-first-violation
    in runs); [steps] counts all decisions across them; [cert] carries
    the first violation's certificate, shrunk when requested, with the
    predicate's message also in [message]. *)
type outcome = {
  runs : int;
  first_violation : int option;  (** 0-based index of the violating run *)
  injected : int;
  steps : int;
  cert : Repro.t option;
  shrink : Repro.shrink_stats option;
  message : string option;
}

val campaign :
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?plan:Faults.plan ->
  ?kind:sched_kind ->
  ?shrink:bool ->
  ?subject:Lepower_obs.Json.t ->
  ?progress:(progress -> unit) ->
  failing:(Engine.Config_view.t -> string option) ->
  (unit -> Engine.config) ->
  outcome
(** [campaign ~failing fresh] runs up to [runs] (default 256) fuzz runs,
    run [i] from [fresh ()] with seed [seed + i] (base default 1), and
    stops at the first final state for which [failing] returns a
    message.  The predicate reads the final state through an
    {!Engine.Config_view.t}, the same view type the explorer's hooks
    take.  Defaults: [max_steps 1000], [plan] {!Faults.none},
    [kind] [Pct {depth = 3}], [shrink true].  The certificate embeds
    [subject] so [lepower replay] can rebuild the instance.  Equal
    seeds yield equal certificates (see {!run}). *)
