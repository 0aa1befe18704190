(** Schedulers: the adversary controlling the interleaving.

    A scheduler sees the global time and the set of processes that still
    have a pending step and picks which one moves next.

    {b Oblivious-adversary contract.}  A scheduler sees {e nothing} of the
    shared state: [choose] receives only the time and the enabled pid set,
    and [observe] only the pid that actually moved.  The contents of
    memory, pending operations and decision values are not inputs, which
    keeps these schedulers oblivious; content-aware adversaries (e.g. the
    bivalency adversary) drive {!Engine.step} directly instead.  This is
    what makes a recorded pid sequence a complete schedule certificate
    ({!Repro}): replaying the same choices from the same initial
    configuration reproduces the run bit for bit.

    {b Protocol with the engine.}  For each executed step the engine calls
    [choose] exactly once and then, if the returned pid was executed,
    [observe] exactly once with that pid.  Wrappers (decision logging in
    {!Repro.recording}, fail-stop filtering in {!crashing}) therefore
    compose without shadowing each other's state: a layer that keeps a
    cursor commits it in [observe] — which always reports the {e actual}
    schedule — rather than in [choose], whose proposal an outer layer may
    veto.  [choose] may also return {!halt} to end the run with every
    remaining process left in its current status. *)

type t = {
  name : string;
  choose : time:int -> enabled:int list -> int;
      (** Called with a non-empty [enabled] list; must return a member of
          it or {!halt}.  Any other value is treated as {!halt} by the
          engine (defensive: a stray pid would otherwise spin forever on
          a no-op step). *)
  observe : time:int -> pid:int -> unit;
      (** Notification that [pid] actually moved at [time] — called once
          per executed step, after [choose].  Stateful schedulers commit
          cursors here; wrappers must forward to the wrapped scheduler. *)
}

val halt : int
(** Sentinel (negative, never a pid) a scheduler returns from [choose] to
    end the run: the engine stops without stepping or crashing anyone and
    reports the outcome of the current configuration. *)

val make : ?observe:(time:int -> pid:int -> unit) -> name:string ->
  (time:int -> enabled:int list -> int) -> t
(** Build a scheduler; [observe] defaults to a no-op. *)

val round_robin : unit -> t
(** Cycles through process ids in order.  Fresh internal cursor per call;
    the cursor follows the {e observed} schedule, so a wrapper that vetoes
    a proposal does not desynchronize it. *)

val random : seed:int -> t
(** Uniform choice among enabled processes, deterministic in [seed]. *)

val fixed : int list -> t
(** Follows the given pid sequence while its entries are enabled (skipping
    disabled ones); falls back to round-robin when exhausted. *)

val prioritize : int list -> t
(** Always runs the enabled process that appears earliest in the list;
    processes not listed are starved until all listed ones finish.  This is
    the "solo run" adversary used in wait-freedom tests. *)

val pct : seed:int -> ?depth:int -> max_steps:int -> unit -> t
(** Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010):
    every process gets a random-but-fixed priority derived from
    [(seed, pid)], the highest-priority enabled process always runs, and
    [depth - 1] priority-change points are sampled over [\[0, max_steps)]
    — when the executed-step counter crosses one, the process that moved
    is demoted below every base priority.  A schedule-dependent bug of
    depth [d] is found with probability ≥ 1/(n·k{^ d-1}) per run.
    Deterministic in [seed]; demotions and the step counter commit in
    [observe], so wrappers that veto proposals do not skew them.
    [depth] defaults to 3; [max_steps] may be any int ([<= 0] puts every
    change point at step 0).

    Cost: one seeded [Random.State] for the change points, plus one per
    pid the first time that pid's priority is compared, made from the
    same [(seed, pid)] key — so a seed names the same priorities, and
    the same schedule, whatever order pids are looked at in.  After
    that, [choose] is one pass over [enabled] comparing int array reads,
    and [observe] scans at most [depth - 1] change points.  Pids must be
    non-negative (they index the priority array). *)

val starve : victim:int -> stall:int -> t -> t
(** Starvation adversary: wraps a scheduler so that [victim] is not
    scheduled during the first [stall] executed steps of the run (it runs
    anyway if it is the only enabled process, since an oblivious adversary
    gains nothing by halting the whole run).  After the stall expires the
    wrapped scheduler sees the full enabled set again. *)

val crashing : crashed:int list -> t -> t
(** Wraps a scheduler so that the given pids are never scheduled
    (fail-stop).  When only crashed pids remain enabled the wrapper
    returns {!halt} — it never consults the underlying scheduler with a
    pid it promised not to run — so the run ends with the crashed
    processes still in their last status. *)
