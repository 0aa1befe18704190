(** Linearizability checking (Wing & Gong's algorithm).

    Given a complete concurrent history and a sequential specification,
    search for a {e linearization}: a total order of the operations that
    (a) respects real time — an operation that responded before another
    was invoked comes first — and (b) is a legal sequential execution of
    the specification with matching results.

    The search is exponential in the worst case but fast on the short
    histories our tests generate; visited (done-set, state) pairs are
    memoized.

    Observability: [check] is wrapped in a ["lincheck.check"]
    {!Lepower_obs.Span} and maintains the [lincheck.checks] /
    [lincheck.memo_hits] / [lincheck.memo_misses] counters when
    {!Lepower_obs.Metrics} is enabled. *)

module Value := Memory.Value

type result =
  | Linearizable of History.operation list  (** a witness order *)
  | Not_linearizable

val check : spec:Memory.Spec.t -> History.t -> result
(** [spec] is the sequential specification; each history operation's [op]
    is fed to [spec.apply] (with its recorded pid) and the returned
    response must equal the recorded [result]. *)

val is_linearizable : spec:Memory.Spec.t -> History.t -> bool
