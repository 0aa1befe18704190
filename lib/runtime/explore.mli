(** Exhaustive interleaving exploration.

    Depth-first enumeration of {e every} schedule of a configuration, up to
    a step bound.  Because configurations are immutable values, branching
    is cheap.  This is the strongest correctness evidence we can produce
    for agreement properties on small instances: a property checked by
    [explore] holds under all adversaries, not just sampled ones.

    Optionally explores crash steps too ({!Options.t.crash_faults}),
    modelling the wait-free (n-1)-resilient adversary.

    All knobs live in one {!Options.t} record — build one with record
    update on {!Options.default}:
    {[
      Explore.explore
        ~options:{ Explore.Options.default with crash_faults = true }
        config
    ]}

    {2 Reductions (opt-in)}

    The naive walk revisits the same configuration through every
    commuting interleaving, which is what caps instance sizes.  Three
    opt-in throughput layers — all {b off by default}, so the default
    walk remains the exhaustive-schedule semantic reference the
    paper-facing claims are stated against:

    - [dedup = true] memoizes visited configurations under their
      {!Fingerprint} (store state + per-process status and operation
      history — {e not} the global trace order) and prunes revisits.
    - [por = true] enables sleep-set partial-order reduction over a sound
      independence relation: moves of distinct processes commute when
      they touch distinct locations, or both read the same location, or
      at least one touches no location (crashes, decide steps).
    - [domains = n] splits the top of a {e naive} walk's schedule tree
      over [n] OCaml 5 domains, each running the sequential explorer;
      statistics merge deterministically (static work split, no
      cross-domain sharing).  A run with [dedup] or [por] takes one
      worker whatever [domains] says: the reductions prune against one
      visited table and its sleep sets, and split workers would each
      redo the others' work.

    Every mode preserves: the set of reachable terminal configurations
    up to trace-order (hence [check_all] verdicts for trace-{e order}-
    insensitive predicates — predicates depending only on final store,
    statuses, decisions, or per-process trace projections), the
    existence of bound-exceeding executions, and {!decision_sets}
    exactly.  Reductions are {b not} sound for predicates that inspect
    the global interleaving order of the trace — {!check_all} {b fails
    loudly} ({!Unsound_predicate}) when a predicate does so under
    [dedup]/[por], using {!Engine.Config_view.order_accessed}.  When a
    naive walk runs on [domains = n > 1] the [on_terminal]/[on_truncated]
    callbacks run in worker domains, serialized by a mutex; terminal
    visit order is nondeterministic (the stats are not).

    {2 The checker API}

    Every checker-facing hook — {!Options.t.on_terminal},
    {!Options.t.on_truncated} and the {!check_all} predicate — takes an
    {!Engine.Config_view.t}: a backend-neutral read-only view served
    zero-copy from the arena machine's flat arrays (or trivially from a persistent
    configuration).  Predicates that stick to the view's O(1)/O(procs)
    accessors cost nothing per terminal on the arena backend; calling
    {!Engine.Config_view.config} materializes the old full
    configuration as a slow fallback.  (The pre-view
    [Engine.config]-taking entry points survived one release as
    deprecated [*_legacy] shims and have been removed.) *)

type stats = {
  terminals : int;  (** complete executions enumerated *)
  truncated : int;  (** executions cut off by the step bound *)
  max_depth : int;
  choice_points : int;
      (** configurations where the adversary had more than one move
          (≥ 2 enabled processes, or any enabled process when
          [crash_faults] adds the step/crash alternative) *)
  configs_visited : int;
      (** total configurations visited by the depth-first walk, interior
          and terminal — the size of the explored schedule tree *)
  configs_deduped : int;
      (** revisits pruned by [dedup] memoization (0 unless enabled) *)
  por_pruned : int;
      (** sibling moves skipped by [por] sleep sets (0 unless enabled) *)
  por_checks : int;
      (** independence queries the [por] sleep-set filter made (0 unless
          enabled) *)
  por_fast_hits : int;
      (** queries answered by the summary-seeded commutation matrix alone
          — no per-move decoding (0 unless {!Options.t.footprints} given) *)
  domains_used : int;
      (** worker domains that actually ran: 1 if serial, and always 1
          with [dedup] or [por] *)
}

exception Stop_exploration

(** Live progress for long campaigns, delivered to
    {!Options.t.progress}: the running totals, globally merged under
    [domains].  Parallel readers may see momentarily lagging counts; the
    final {!stats} never do. *)
type progress = {
  p_configs : int;
  p_terminals : int;
  p_truncated : int;
  p_deduped : int;
  p_pruned : int;
  p_max_depth : int;
  p_domains : int;
}

(** The exploration configuration, consolidated — the {e only} way to
    configure this module.  Prefer [{ Options.default with ... }] over
    spelling out all fields. *)
module Options : sig
  type t = {
    max_steps : int;
        (** bound on each execution's length (default 10_000 —
            effectively unbounded for wait-free protocols on small
            instances) *)
    crash_faults : bool;
        (** when [true] (default [false]), at every choice point each
            running process may also crash, multiplying the schedule
            space *)
    dedup : bool;  (** fingerprint memoization (default [false]) *)
    por : bool;  (** sleep-set partial-order reduction (default [false]) *)
    domains : int;
        (** worker domains for a naive walk (default [1] = sequential).
            A run with [dedup] or [por] takes one worker whatever this
            says and reports [domains_used = 1]. *)
    backend : Engine.backend;
        (** which executor runs the DFS (default [Persistent]).  There
            are three walkers, and this field picks one per run:
            - [Persistent]: the reference walk over immutable
              configurations.  The cross-backend tests compare against
              it, and it is the faster path for hooks that read the
              trace (lint's checkers).
            - [Arena], naive mode: each DFS root is lowered into an
              {!Engine.Machine} — compiled programs, mutable store,
              undo on backtrack — and walked allocation-free.
            - [Arena] with [dedup] and/or [por]: the same machine,
              journal-free between choice points — per-move undo in
              stack frames ({!Engine.Machine.step_frame}), int-bitset
              sleep sets, and a dedup key of interned int ids, updated
              from each step's store delta and hashed when the visited
              table is probed (see DESIGN.md §7 for the contract).  The sleep set needs [2 * n_procs <= 62]
              bits; a larger instance runs the [Persistent] walk
              instead, with identical stats, and [on_lowering] does not
              fire on that route.

            Verdicts, statistics, decision sets and reported witness
            paths are identical across backends.  A program whose
            compiled form outgrows its node budget transparently falls
            back to closure interpretation (see
            {!Program.Compiled}/[on_lowering]); the frontier split of a
            naive run under [domains] stays persistent either way (it is
            shallow and exact). *)
    footprints : (string list * string list) array;
        (** per-pid static (may-read, may-write) location lists, indexed
            by pid — seeds a pairwise commutation matrix giving [por] a
            fast path: processes whose footprints never conflict (no
            may-write meets the other's footprint) commute at every
            configuration, so their independence queries skip the
            per-move program decoding.  {b Soundness requirement}: each
            entry must {e over}-approximate every location that process
            can ever touch / mutate (e.g. {!Lepower_static.Summary}'s
            [footprints] of a [complete] analysis); the matrix is used as
            a sufficient condition only, so a [false] entry merely falls
            back to the exact check.  [[||]] (the default) disables the
            fast path; verdicts, decision sets, and pruning decisions are
            identical either way. *)
    on_terminal : (Engine.Config_view.t -> unit) option;
        (** runs on every terminal view — e.g. [Lepower_check]'s trace
            discipline and bounded-value lints, fed each complete
            trace.  With [dedup]/[por] only a representative
            interleaving per equivalence class reaches the hook.  The
            view borrows the executing machine's live state: read what
            you need inside the callback; do not retain the view. *)
    on_truncated : (Engine.Config_view.t -> unit) option;
    on_lowering : (Program.Compiled.report array -> unit) option;
        (** [Arena] walks only: called once per DFS item (once total when
            one worker walks: [domains <= 1], or [dedup]/[por]) with the
            per-pid lowering reports of that item's machine — how many
            instructions were interned, edge-table hit/miss counts, and
            whether the process bailed to the closure fallback.
            Serialized by a mutex under [domains].  The CLI's
            [--backend arena] aggregates these into its lowering summary
            (default [None]). *)
    progress : (progress -> unit) option;
        (** called every 8192 configurations (per worker domain, merged
            globally and serialized by a mutex under [domains]) with the
            running totals — drive heartbeats from here (default
            [None]). *)
  }

  val default : t
  (** [{max_steps = 10_000; crash_faults = false; dedup = false;
      por = false; domains = 1; backend = Persistent; footprints = [||];
      on_terminal = None; on_truncated = None; on_lowering = None;
      progress = None}] — the naive exhaustive walk, exactly. *)
end

val explore : ?options:Options.t -> Engine.config -> stats
(** Walk every schedule under the given {!Options.t} (default
    {!Options.default}).

    Observability: wrapped in an ["explore.explore"]
    {!Lepower_obs.Span}; maintains the [explore.*] counters
    (configs_visited, choice_points, terminals, truncated,
    configs_deduped, por_pruned) when {!Lepower_obs.Metrics} is enabled —
    updated once from the merged totals, so they are deterministic and
    race-free under [domains]. *)

(** {1 Ready-made whole-space checks} *)

(** A failed check: the witness schedule, what went wrong, and the exact
    adversary decisions from the initial configuration to the witness —
    ready to certify with {!Repro.of_decisions} and replay anywhere.
    Even under [dedup]/[por]/[domains] the decisions are a genuine
    root-to-leaf path of the search (pruned revisits never report). *)
type violation = {
  trace : Trace.t;
  message : string;
  decisions : Repro.decision list;
}

exception Unsound_predicate of string
(** Raised by {!check_all} when the predicate read the global trace
    order ({!Engine.Config_view.trace}, [last_event] or [config]) on a
    {e satisfying} terminal while [dedup] or [por] was enabled — the
    reductions prune interleavings that only differ in that order, so
    the verdict would be unsound.  Violations are exempt: their witness
    schedule genuinely executed. *)

val check_all :
  ?options:Options.t ->
  Engine.config ->
  (Engine.Config_view.t -> (unit, string) result) ->
  (stats, violation) result
(** Run the predicate on every terminal view; stop at the first
    violation and report its schedule.  A truncated execution is itself a
    violation (non-termination under some schedule); its [message] names
    the truncation depth and the truncated trace's last event.
    [options.on_terminal] and [options.on_truncated] are {b ignored} —
    [check_all] claims both hooks for the predicate and truncation
    reporting.

    On the arena backend the view reads the machine's live flat arrays:
    a predicate built from the O(1)/O(procs) accessors adds no
    per-terminal materialization cost (E17's checked rows measure
    this).  {!Engine.Config_view.config} is available as the slow
    fallback and counts as an order access.

    [dedup]/[por]/[domains] may be requested {b only} for predicates
    insensitive to the global trace order (see {!explore}) — enforced
    at runtime via {!Unsound_predicate}; the Ok/Error verdict is then
    identical to the naive walk's, though the particular witness
    schedule reported may be a different member of the same commutation
    class.

    When a naive walk runs on [domains = n > 1] the predicate runs
    {b concurrently} in the worker domains (it must be — and, being a
    function of a read-only view, naturally is — pure); serializing it
    would serialize the whole search.  Violation recording remains
    mutex-protected. *)

val decision_sets :
  ?options:Options.t -> Engine.config -> Memory.Value.t list list
(** All distinct decision multisets (sorted within a run, deduplicated
    across runs, output sorted) reachable from the configuration.  Small
    instances only.  Decision multisets are trace-order-insensitive, so
    the reductions are always sound here and the output is byte-identical
    across all modes.  [options.on_terminal] (if any) still runs after
    the internal recording; other callbacks pass through unchanged. *)

