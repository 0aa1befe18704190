(** The execution engine: interleaves process steps under a scheduler.

    A {!config} is a complete instantaneous description of the system —
    shared memory plus every process's remaining program.  [step] advances
    one process by one atomic operation; [run] drives a whole execution. *)

type config = {
  store : Memory.Store.t;
  procs : Proc.t array;
  time : int;
  trace : Trace.event list;
      (** {b Reverse} chronological order — the event consed by the most
          recent [step] is at the head.  This is the raw accumulator;
          every consumer that wants the linearization order (pretty
          printers, {!Trace_export}'s JSONL/Chrome writers, checkers)
          must go through {!trace}, which reverses it. *)
}

(** Which implementation executes steps.  [Persistent] is the reference:
    pure functions over {!config}.  [Arena] is the hot path for
    exhaustive walks: a {!Machine} over a mutable
    {!Memory.Store.Arena} with compiled programs and undo on backtrack.
    The two are step-for-step equivalent.  [Explore] takes a backend
    option and guarantees identical verdicts, statistics and decision
    sets.  Fuzz campaigns and certificate replay run forward only, with
    no backtracking to amortize the lowering, and use the persistent
    engine alone. *)
type backend = Persistent | Arena

val backend_name : backend -> string
(** ["persistent"] / ["arena"] (the CLI flag spelling). *)

val init : Memory.Store.t -> Program.prim list -> config
(** Processes get pids [0 .. n-1] in list order. *)

val enabled : config -> int list
(** Pids that are still [Running]. *)

val step : config -> int -> config
(** Advance process [pid] by one shared-memory operation.  A process whose
    operation is rejected by the store, or whose continuation raises,
    becomes [Faulty].  Stepping a non-running process is a no-op. *)

val crash : config -> int -> config
(** Fail-stop a process (adversary move). *)

val step_lost : config -> int -> config
(** Lost-write fault (adversary move): like {!step}, except the store
    keeps its pre-step states.  The process observes the response its
    operation would have produced against the pre-state — consistent,
    since a read linearized just before the lost write sees exactly that
    state — advances its continuation, and cannot tell its effect
    evaporated.  The trace event is recorded as usual.  The other
    register-fault primitive, stuck-at, lives in
    {!Memory.Store.freeze}; both are driven by [Faults]. *)

val trace : config -> Trace.t
(** The linearization order, {b oldest first} (chronological) — the
    reverse of the [trace] field's accumulation order.  This is the
    order {!Trace_export} serializes. *)

(** Result of a completed run. *)
type outcome = {
  final : config;
  decisions : (int * Memory.Value.t) list;  (** pid, decision; pid order *)
  faults : (int * string) list;
  crashes : int list;
  steps : int;  (** total shared-memory operations performed *)
  hit_step_limit : bool;
}

val run : ?max_steps:int -> sched:Sched.t -> config -> outcome
(** Drive the configuration until no process is running, the scheduler
    returns {!Sched.halt} (or any non-enabled pid — treated as halt), or
    [max_steps] (default 1_000_000) operations have been performed.
    Hitting the limit with live processes sets [hit_step_limit] — for a
    wait-free protocol under a fair scheduler this indicates a bug and
    tests treat it as failure.  After each executed step the scheduler's
    [observe] hook is notified with the pid that moved, which is what
    {!Repro.recording} uses to capture schedule certificates.

    Observability: the whole run is wrapped in a ["engine.run"]
    {!Lepower_obs.Span}, and [step] maintains the [engine.*] counters
    (steps, store ops, cas successes/failures, faults) plus the
    [engine.steps_per_proc] histogram — all no-ops unless
    {!Lepower_obs.Metrics.enable} / {!Lepower_obs.Span.enable} ran. *)

val distinct_decisions : outcome -> Memory.Value.t list
(** Deduplicated decision values, in first-decided order. *)

val max_steps_per_proc : outcome -> int
(** Maximum number of operations any single process performed: the
    empirical wait-freedom bound of the run. *)

val config_equal : config -> config -> bool
(** Structural equality of everything a backend can disagree on: store
    states (specs assumed equal), per-process status and step counts,
    the clock, and the full trace with [time]/[pid] stamps.  Process
    programs — closures — are {e not} compared; by program determinism
    equal traces imply equal continuations.  Used by the cross-backend
    tests. *)

(** The mutable execution machine: the [Arena] backend.

    A machine is a {!config} lowered for speed — the store becomes a
    {!Memory.Store.Arena}, each process's program a
    {!Program.Compiled.t}, statuses and step counts flat arrays — plus
    an undo journal so a depth-first explorer can {!mark}, take steps,
    and {!undo_to} in O(1) amortized per step instead of keeping
    persistent copies.

    Step semantics are {e identical} to the persistent {!step}: the
    same store errors, type-error messages, status transitions, trace
    events, and metric counters, in the same order.  Materializing with
    {!config} after any step sequence yields a configuration
    [config_equal] to the one the persistent engine reaches through the
    same moves.

    Not thread-safe; one machine per domain. *)
module Machine : sig
  type t

  val of_config : ?max_nodes:int -> config -> t
  (** Lower a configuration.  [max_nodes] caps each process's compiled
      instruction graph (default {!Program.Compiled.default_max_nodes});
      processes that outgrow it transparently continue on the closure
      interpreter ({!reports} says which). *)

  val n_procs : t -> int
  val time : t -> int
  val status : t -> int -> Proc.status
  val is_running : t -> int -> bool

  val enabled : t -> int list
  (** Pids still [Running], ascending — same as the persistent
      {!Engine.enabled}. *)

  val state_bindings : t -> (string * Memory.Value.t) list

  val step : t -> int -> unit
  (** Advance process [pid] by one operation, journaling enough to undo.
      Same semantics as the persistent {!Engine.step}. *)

  val crash : t -> int -> unit

  val mark : t -> int
  (** O(1) snapshot token: the machine journal position. *)

  val undo_to : t -> int -> unit
  (** Rewind to a {!mark}: statuses, pcs, step counts, clock, trace and
      store all return to their state at the mark. *)

  type walk_stats = {
    mutable w_configs : int;
    mutable w_terminals : int;
    mutable w_truncated : int;
    mutable w_max_depth : int;
    mutable w_choice_points : int;
  }

  val walk_naive :
    ?tick:(walk_stats -> unit) ->
    ?on_terminal:(int array -> int -> unit) ->
    ?on_truncated:(int array -> int -> unit) ->
    crash_faults:bool ->
    max_steps:int ->
    depth0:int ->
    walk_stats ->
    t ->
    unit
  (** Exhaustive naive enumeration (every interleaving; with
      [crash_faults], every crash placement), counting into
      [walk_stats] — the machine's raw hot path.  Each move's undo data
      lives in the DFS stack frame: memoized transitions bypass the
      journal entirely and the walk allocates nothing once the
      per-instruction transition memos are warm.  Traversal order and
      counter semantics match the {!Explore} naive DFS; [tick] fires
      every 8192nd configuration counted from [w_configs]'s initial
      value.  Steps are not phase-attributed; metrics counters are fed
      as usual.  The machine is back in its pre-walk state on return.

      The walk owns a move path: every move is recorded into it — a
      step of process [p] as [p], a crash of [p] as [-p-1] — and it
      grows with the depth reached, whatever [max_steps] says.
      [on_terminal] (resp. [on_truncated]) fires at each terminal
      (resp. step-bound-truncated) leaf with the path and the number of
      moves recorded, [mc]: [path.(0 .. mc-1)] leads from the walk's
      root to the leaf.  The array is valid only during the hook call.
      Because memoized transitions bypass the journal, the machine's
      journal does not cover the schedule at a leaf — hooks needing the
      trace must replay the path from the walk's root configuration
      (which is what {!Config_view.of_machine_flat} arranges).  Hooks
      observe the machine live, mid-walk, and must not step or undo
      it. *)

  val access : t -> int -> (string * bool) option
  (** [(loc, is_read)] of the operation process [pid] is about to
      perform; [None] if its program is done.  Status-independent, like
      the explorer's persistent move-access probe; [is_read] is the
      literal [:read] check the POR independence relation uses. *)

  val access_enc : t -> int -> int
  (** {!access} as an int, allocation-free, for commutation checks in
      hot loops: [-1] if the program is done, [-2] if the pending
      access names a location the store does not intern (fall back to
      {!access} and compare names), else [2 * slot lor is_read] with
      [slot] the arena location id — equal slots iff equal location
      names. *)

  (** {2 Journal-free single-step frames}

      The building block of the reduced (dedup / sleep-set POR) arena
      walk: one move's undo data packaged in the caller's stack frame
      instead of the journal.  {!step_frame} takes the same memoized
      fast path as {!walk_naive} — direct array writes, no journal
      entry, no allocation — and records the exact inverse in the
      frame; a first visit or non-memoizable step falls back to the
      journaled step with the frame holding only the journal mark.
      The [frame_*] accessors expose the step's event and its
      single-binding store delta uniformly across both paths, so the
      walk can update its visited-table key and extend the stepping
      process's history.  Frames are reusable; undo them in strict
      LIFO order. *)

  type frame
  (** Mutable undo record for one step.  Reusable across moves at the
      same stack depth; contents are valid from a {!step_frame} until
      the matching {!undo_frame}. *)

  val frame : unit -> frame
  (** A fresh (blank) frame. *)

  val step_frame : t -> int -> frame -> unit
  (** [step_frame m pid f] steps [pid] exactly like {!step} (same
      memoization, same metrics, same fault semantics) but records the
      undo in [f]: memo hits bypass the journal entirely; slow-path
      steps are journaled and [f] keeps the mark.  [pid] must be
      running. *)

  val undo_frame : t -> frame -> unit
  (** Exact inverse of the matching {!step_frame}.  Frames must be
      undone in reverse order of their steps (LIFO). *)

  val frame_step_event : t -> frame -> bool
  (** Whether the frame's step performed a store operation (memo hits
      always do; a slow-path decide step or store-rejected fault does
      not). *)

  val frame_loc : t -> frame -> string
  (** Location the frame's step operated on. *)

  val frame_loc_id : t -> frame -> int
  (** The same location as its interned arena slot id — lets callers
      index per-slot data (e.g. the visited-table key's state words)
      without re-interning the name. *)

  val frame_op : t -> frame -> Memory.Value.t
  (** The operation value. *)

  val frame_result : t -> frame -> Memory.Value.t
  (** The operation's response. *)

  val frame_old_state : t -> frame -> Memory.Value.t
  (** State of {!frame_loc}'s object before the operation. *)

  val frame_new_state : t -> frame -> Memory.Value.t
  (** Its state after the operation. *)

  val crash_frame : t -> int -> unit
  (** Unjournaled crash: flips the (running) process to crashed, for
      frame-based walks.  Pair with {!uncrash_frame} on backtrack. *)

  val uncrash_frame : t -> int -> unit
  (** Undo a {!crash_frame}: flips the process back to running. *)

  (** {2 Machine snapshots}

      A compact copy of the structural state that distinguishes
      configurations of one exploration: store states in arena slot
      order plus per-process status, {e without} location names —
      within one exploration the arena layout is fixed, so slotwise
      value comparison makes exactly the distinctions
      {!Fingerprint.equal} makes on the sorted binding list.  Process
      histories are not included.  The explorer's visited table does
      not store snapshots: it keeps each configuration as a fixed-width
      key of interned int ids, updated from each step's frame delta.
      Snapshots remain for callers that want to
      capture and re-compare a machine state, such as layer
      benchmarks. *)

  type snapshot

  val snapshot : t -> snapshot
  (** Capture the current store states and process statuses.
      O(locs + procs), a few small array copies — no journal walk, no
      binding-list or [config] materialization. *)

  val snapshot_equal : t -> snapshot -> bool
  (** Compare a stored snapshot against the {e live} machine — the
      machine side materializes nothing, so a comparison allocates
      nothing.  Only meaningful between a snapshot and a machine of the
      same exploration (same arena layout and process count);
      mismatched shapes compare unequal. *)

  val config : t -> config
  (** Materialize the current state as a persistent configuration
      (store, procs with [prim] programs, clock, full reverse-chron
      trace).  O(locs + procs + events since [of_config]).  The trace
      comes from the journal, so it covers only {!step}/{!crash} moves,
      not the journal-free {!walk_naive}/{!step_frame} ones. *)

  val reports : t -> Program.Compiled.report array
  (** Per-process lowering reports (indexed by pid). *)
end

(** Backend-neutral read-only view of a terminal (or intermediate)
    configuration — the one type every checker-facing hook takes.

    There are two implementations.  A view over a persistent {!config}
    just reads the record.  A view over an arena {!Machine} serves the
    flat accessors below straight from the machine's arrays and arena
    store, and obtains everything trace-shaped from a materializer
    that builds the persistent configuration once, cached: either
    {!Machine.config} ({!Config_view.of_machine}) or a replay of the
    walk's move path ({!Config_view.of_machine_flat}).

    Cost contract (arena-backed view; persistent is O(1)/O(procs)
    except for the trace-shaped accessors, which are O(events)):
    - O(1): {!Config_view.n_procs}, {!Config_view.time},
      {!Config_view.status}, {!Config_view.is_running},
      {!Config_view.steps}, {!Config_view.stepped},
      {!Config_view.decision}, {!Config_view.store_state},
      {!Config_view.mem_loc}.
    - O(procs): {!Config_view.has_running}, {!Config_view.decisions},
      {!Config_view.decision_values}, {!Config_view.distinct_decisions},
      {!Config_view.faults}, {!Config_view.over_step_bound},
      {!Config_view.max_steps_per_proc}.
    - O(locs): {!Config_view.state_bindings}.
    - Materializing (O(events + locs + procs), allocates, cached after
      the first call): {!Config_view.trace_length},
      {!Config_view.events_of}, {!Config_view.trace},
      {!Config_view.last_event}, {!Config_view.config}.

    Order tracking: {!Config_view.trace}, {!Config_view.last_event} and
    {!Config_view.config} expose the global interleaving order and mark
    the view ({!Config_view.order_accessed}).  {!Explore.check_all}
    uses that mark to fail loudly when an order-inspecting predicate
    runs under [dedup]/[por], where only order-insensitive predicates
    are sound.  {!Config_view.events_of} (a single pid's projection)
    and {!Config_view.trace_length} are order-insensitive and do not
    mark the view.

    A view borrows its backing state: an arena-backed view is valid
    only until the machine's next [step]/[undo_to].  Explorer hooks
    receive a fresh view per terminal and must not retain it. *)
module Config_view : sig
  type t

  val of_config : config -> t
  (** Trivial persistent view ({!Config_view.config} returns the
      argument itself). *)

  val of_machine : Machine.t -> t
  (** Zero-copy view over a machine driven by {!Machine.step} and
      {!Machine.crash}: [of_machine_flat m ~replay:(fun () ->
      Machine.config m)].  Borrow: valid until the machine moves. *)

  val of_machine_flat : Machine.t -> replay:(unit -> config) -> t
  (** Zero-copy view over a machine whose journal does not cover every
      move, such as one driven by {!Machine.walk_naive} or
      {!Machine.step_frame}.  Flat accessors (statuses, decisions,
      steps, store state) read the machine arrays directly; trace-shaped
      accessors ({!trace}, {!last_event}, {!config}, {!trace_length},
      {!events_of}) materialize a persistent configuration by calling
      [replay] — typically the explorer replaying the walk's recorded
      move path from its root configuration — once, cached.  Same
      borrow discipline as {!of_machine}. *)

  val n_procs : t -> int
  val time : t -> int
  val status : t -> int -> Proc.status
  val is_running : t -> int -> bool

  val has_running : t -> bool
  (** Whether any process is still [Running] (i.e. the configuration is
      not terminal). *)

  val steps : t -> int -> int
  (** Shared-memory operations process [pid] has performed. *)

  val stepped : t -> int -> bool
  (** [steps v pid > 0] — equivalently, whether [pid] has a trace
      event: both backends record an event exactly when they increment
      the step count. *)

  val max_steps_per_proc : t -> int
  (** The empirical wait-freedom bound, like {!Engine.max_steps_per_proc}. *)

  val over_step_bound : t -> int -> (int * int) option
  (** First (lowest-pid) process whose step count exceeds the bound, as
      [(pid, steps)]. *)

  val decision : t -> int -> Memory.Value.t option

  val decisions : t -> (int * Memory.Value.t) list
  (** [(pid, decision)] for every decided process, pid order — matches
      {!outcome}'s [decisions] field. *)

  val decision_values : t -> Memory.Value.t list
  (** Decision values in pid order (with duplicates). *)

  val distinct_decisions : t -> Memory.Value.t list
  (** Deduplicated decision values, first-pid order. *)

  val faults : t -> (int * string) list
  (** [(pid, message)] for every faulty process, pid order. *)

  val store_state : t -> string -> Memory.Value.t option
  (** Current state of one shared object, like {!Memory.Store.peek}. *)

  val mem_loc : t -> string -> bool
  val state_bindings : t -> (string * Memory.Value.t) list

  val trace_length : t -> int
  (** Number of trace events.  Order-insensitive; does not mark the
      view. *)

  val events_of : t -> int -> Trace.event list
  (** Process [pid]'s own operations, chronological.  Order-insensitive
      (a pid's events keep their relative order under commutation of
      independent steps), so this does not mark the view. *)

  val order_accessed : t -> bool
  (** Whether {!trace}, {!last_event} or {!config} ran on this view. *)

  val trace : t -> Trace.t
  (** Full trace, oldest first — like {!Engine.trace}.  Materializes on
      an arena view (cached) and marks the view as order-accessed. *)

  val last_event : t -> Trace.event option
  (** Most recent trace event.  Marks the view as order-accessed. *)

  val config : t -> config
  (** Materialize the whole configuration (the slow fallback; cached).
      Marks the view as order-accessed. *)
end
