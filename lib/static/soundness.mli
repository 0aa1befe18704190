(** Soundness cross-check: a concrete execution must stay inside its
    protocol's effect summary.

    Used two ways: as a lint-time validation of every explored/fuzzed
    execution against the static analysis (a violation means the abstract
    interpreter is wrong — the strongest regression test the analyzer
    has), and as the executable statement of the summary's
    over-approximation contract ({!Summary}).

    Per trace event: the location must lie in the acting process's static
    footprint, and a mutating operation's location in its may-write set.
    The trace is then replayed through the sequential specs (the same
    replay {!Lepower_check.Bounded_check.check} performs) and every state
    an operation produces must lie in Σ̂.  Replay divergence is {e not}
    reported here — that is the dynamic lint's job; the replay simply
    stops following a location whose replay diverged. *)

val check :
  store:Memory.Store.t -> Summary.t -> Runtime.Trace.t -> string list
(** [check ~store summary trace] — [store] must be the {e pre-run} store;
    [trace] oldest-first (as {!Runtime.Engine.trace} returns).  Returns
    human-readable violations, [[]] when the execution is inside the
    summary.  Only meaningful when the summary is {!Summary.t.complete}
    — callers gate on it.  Equal to
    [finish ctx (List.fold_left (step ctx) (init ctx) trace)] with
    [ctx = prepare ~store summary]. *)

(** {1 Step form}

    The same check one event at a time, so that exhaustive lint can
    step each edge of its DFS tree once.  A {!state} is immutable. *)

type ctx
(** Prepared once per pre-run store and summary (each process's
    footprint and may-write set). *)

val prepare : store:Memory.Store.t -> Summary.t -> ctx

type state
(** The replayed store, the locations whose replay diverged, and the
    violations so far. *)

val init : ctx -> state
val step : ctx -> state -> Runtime.Trace.event -> state

val finish : ctx -> state -> string list
(** The violations of the whole trace, oldest first. *)
