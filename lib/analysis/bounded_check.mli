(** Bounded-value lint: the executable form of the paper's space bound.

    A compare&swap-(k) register may ever hold at most [k] distinct values
    — ⊥ plus Σ's [k−1] symbols — and the sequence of values it actually
    takes must be a legal Σ-history: it starts at ⊥, never repeats a
    symbol consecutively (a successful c&s changes the value), and first
    uses of symbols occur in label order ({!Core.Sigma},
    {!Core.Label}).  This module certifies those facts over concrete
    executions:

    - {!check} replays a {!Runtime.Trace.t} through the store's
      sequential specs, reconstructs each bounded location's value
      timeline, and lints it ([replay-divergence] when the trace is not
      even reproducible by the specs, then the history rules below).
      It is the fold of the step form below: {!prepare} once per store,
      {!step} per event, {!finish} at the end;
    - {!check_history} lints one already-reconstructed Σ-history — the
      entry point the emulation run path uses on each label's history,
      next to {!Core.Invariants}.

    Rules: [bounded-value] (more than [k−1] distinct non-⊥ values, or a
    symbol escaping the alphabet), [sigma-history] (not starting at ⊥,
    consecutive repetition, non-Σ state), [label-order] (first uses
    not following the label given to {!check_history}),
    [sticky-discipline] (a sticky register changing value more than
    once) and [replay-divergence].  [label-order] comes only from the
    labelled form of {!check_history}, which {!Emulation_check} uses:
    the first uses of any history always form a legal label, so an
    unlabelled check has no order to break. *)

val check :
  ?bounds:(string * int) list ->
  store:Memory.Store.t ->
  Runtime.Trace.t ->
  Finding.t list
(** [check ~store trace] — [store] must be the pre-run store.  Locations
    with spec type [cas(k)] are certified against their own [k]; entries
    in [bounds] override (or, for object types without an intrinsic
    alphabet such as [swap], declare) the bound for a location — that is
    how a lint declares "this register was supposed to be a cas(k)" and
    catches a location fed [k+1] values.  Equal to
    [finish ctx (List.fold_left (step ctx) (init ctx) trace)] with
    [ctx = prepare ?bounds store]. *)

(** {1 Step form}

    The same check one event at a time, for callers that analyze many
    traces sharing prefixes (exhaustive lint steps each edge of its DFS
    tree once and finishes each leaf).  A {!state} is immutable: a
    caller may keep the state after every event of a trace and resume
    from any of them. *)

type ctx
(** Prepared once per pre-run store and bounds: the store, and each
    certified location with what {!finish} certifies on it (the Σ-history
    rules of a [cas(k)], the sticky rule, or a declared bound). *)

val prepare : ?bounds:(string * int) list -> Memory.Store.t -> ctx

type state
(** The replay so far: the specs' store, each location's value timeline
    and the [replay-divergence] findings. *)

val init : ctx -> state
(** Before the first event. *)

val step : ctx -> state -> Runtime.Trace.event -> state
(** Replay one event. *)

val finish : ctx -> state -> Finding.t list
(** Certify every location's timeline; the findings of the whole trace,
    deduplicated and sorted. *)

val check_history :
  ?label:Core.Label.t ->
  k:int ->
  loc:string ->
  Core.Sigma.t list ->
  Finding.t list
(** Lint one Σ-history (oldest first, starting at ⊥).  When [label] is
    given, the history's first uses must additionally follow that label's
    order (the emulation's Definition 1 obligation); this is the only
    source of [label-order] findings. *)
