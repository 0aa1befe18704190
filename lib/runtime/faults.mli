(** The fault plane: adversary moves between the engine and the store.

    Three fault primitives sit between {!Engine} and [Memory.Store]:

    - {b fail-stop crash} mid-iteration ({!Engine.crash});
    - {b lost write}: a process takes its step but the store keeps its
      pre-step states ({!Engine.step_lost});
    - {b stuck-at register}: an object is frozen at its current state;
      operations still compute responses, nothing changes
      ([Memory.Store.freeze]).

    Every injected fault is a first-class {!Repro.decision}
    ([Crash]/[Lose]/[Stick]) in the same stream as the scheduling
    choices, so a certificate recorded by a faulty run replays bit for
    bit with the faults re-injected at the same points — {!Repro.apply}
    executes fault decisions itself.  The fourth adversary weapon of the
    issue, stall injection, needs no store hook: it is pure schedule
    shaping and lives in {!Sched.starve}.

    [Fuzz] owns the campaign loop; this module owns the per-decision
    policy ({!decide}) and execution ({!apply}). *)

(** Injection rates and budgets.  Probabilities are per adversary
    decision point: at each point one roll in [\[0, 1)] selects crash
    ([\[0, crash_p)]), stuck-at ([\[crash_p, crash_p + stick_p)]), lost
    write (the next [lose_p]-wide band) or a normal step (the rest).  A
    band whose budget is exhausted — [max_crashes] crashes,
    [max_faults] lost writes + stuck-ats — falls through to a normal
    step, as does a crash that would kill the last live process. *)
type plan = {
  crash_p : float;
  lose_p : float;
  stick_p : float;
  max_crashes : int;  (** at most this many fail-stops per run *)
  max_faults : int;  (** at most this many lost writes + stuck-ats per run *)
}

val default : plan
(** Mild chaos: 2% crash, 5% lost write, 1% stuck-at per decision point;
    one crash, eight register faults per run. *)

val none : plan
(** All rates and budgets zero: every decision is a normal step. *)

val decide :
  plan:plan ->
  rng:Random.State.t Lazy.t ->
  crashes:int ->
  faults:int ->
  sched:Sched.t ->
  time:int ->
  enabled:int list ->
  locs:string list Lazy.t ->
  Repro.decision option
(** One adversary decision, deterministic in [rng].  [crashes]/[faults]
    are the injection counts so far (budget enforcement); [locs] is the
    store's location list, fixed for the whole run (faults never add or
    remove objects), so callers build it once.  The scheduler is
    consulted only when the decision schedules a process (step or lost
    write), so its internal state advances exactly with the executed
    schedule; [None] means the scheduler returned {!Sched.halt}.  The
    caller must notify [sched.observe] for [Step]/[Lose] decisions it
    executes, exactly as {!Engine.run} would.

    Each decision rolls [rng] once when some rate of [plan] is positive.
    When every rate is 0 (as in {!none}) no band can fire, so [decide]
    makes no roll and forces neither [rng] nor [locs]: a fault-free run
    pays for no fault RNG, and its schedule is the scheduler's alone.
    [locs] is forced only by a stuck-at roll. *)

val apply : Engine.config -> Repro.decision -> Engine.config
(** Execute one decision (the same semantics {!Repro.apply} uses),
    bumping the [faults.injected] counter for the fault decisions. *)

val is_fault : Repro.decision -> bool
(** [true] for [Crash]/[Lose]/[Stick], [false] for [Step]. *)
