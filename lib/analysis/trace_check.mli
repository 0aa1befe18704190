(** Trace discipline checker: a vector-clock happens-before pass over one
    linearized execution trace.

    Replays the trace once, maintaining per-process vector clocks
    (program order, joined along reads-from edges) and per-location write
    metadata, and reports:

    - {b swmr-discipline}: two distinct processes wrote one single-writer
      register.  The paper assumes w.l.o.g. that the emulated algorithm's
      r/w registers are SWMR; this rule makes that assumption checkable
      on any trace, including traces of protocols that (wrongly) route a
      shared register through the multi-writer spec.  The finding reports
      whether the offending writes were concurrent under happens-before
      or merely by different owners.
    - {b reads-from}: an atomic register read returned a value that is
      neither the latest preceding write's value nor the initial value.
    - {b op-type}: operation/response confusion — a location driven
      through two different operation families (e.g. both [write] and
      [cas]), an operation family contradicting the location's spec
      type, or a write acknowledged with a non-unit response.

    The checker never runs programs; it needs only the {e initial} store
    (for specs and initial values) and the trace.  {!check} is the fold
    of the step form below: {!prepare} once per store, {!step} per
    event, {!finish} at the end. *)

val check :
  ?single_writer:string list ->
  store:Memory.Store.t ->
  Runtime.Trace.t ->
  Finding.t list
(** [check ~store trace] — [store] must be the pre-run store (as built
    from an instance's bindings).  Locations whose spec type is
    [swmr-reg] are held to the single-writer discipline automatically;
    [single_writer] adds locations that are {e declared} single-writer
    even though their spec would accept any writer (that is exactly the
    discipline violation the rule exists to catch).  Findings are
    deduplicated and sorted.  Equal to
    [finish ctx (List.fold_left (step ctx) (init ctx) trace)] with
    [ctx = prepare ?single_writer store]. *)

(** {1 Step form}

    The same check one event at a time (see {!Bounded_check}'s step form
    for why).  A {!state} is immutable, so a caller may keep the state
    after every event and resume from any of them. *)

type ctx
(** Prepared once per pre-run store: each bound location's spec type,
    expected operation family, single-writer flag and initial value. *)

val prepare : ?single_writer:string list -> Memory.Store.t -> ctx

type state
(** Per-process vector clocks, per-location write metadata and the
    findings so far.  The clocks cover the pids stepped so far and grow
    as new ones step, which changes no finding ({!Vclock} pads with
    zeros). *)

val init : ctx -> state
val step : ctx -> state -> Runtime.Trace.event -> state

val finish : ctx -> state -> Finding.t list
(** The findings of the whole trace, deduplicated and sorted. *)
