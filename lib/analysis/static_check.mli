(** The static lint plane: findings computed from
    {!Lepower_static} effect summaries, without executing a single
    schedule.

    Four rules, each the static counterpart of a dynamic analyzer:

    - [static-swmr] (↔ [swmr-discipline]): two processes' may-write sets
      meet on a location the target declares single-writer (or that is
      bound to the [swmr-reg] spec).  Reported even from an incomplete
      summary — a may-write entry is presence evidence: the interpreter
      saw the process issue that write.
    - [static-k-bound] (↔ [bounded-value]): a location's abstract state
      set Σ̂ provably exceeds its space bound (the [cas(k)] alphabet, or
      a declared bound), counting exactly as
      {!Bounded_check.check} does over a concrete timeline.
    - [static-loop-bound] (↔ [wait-freedom]): a process's walk hit the
      depth cap.  [Error] only when no path terminates under the pooled
      responder and the walk was not node-capped (a genuine spin);
      retry loops with a reachable exit and inconclusive walks are
      recorded at [Info] for the dynamic auditor to corroborate.
    - [static-register-budget]: the register accountant — always an
      [Info] census of static footprints (flagging unreachable
      bindings), an [Error] when [register_budget] is given and the
      protocol's footprint exceeds it.

    Soundness violations ({!soundness_finding}) use rule
    [static-soundness] at [Error]: an execution escaping its summary
    means the abstract interpreter itself is wrong. *)

type analysis = {
  summary : Lepower_static.Summary.t;
  certs : Lepower_static.Kbound.cert list;
  accountant : Lepower_static.Accountant.t;
}

val analyze :
  ?options:Lepower_static.Absint.options ->
  ?bounds:(string * int) list ->
  bindings:(string * Memory.Spec.t) list ->
  Runtime.Program.prim list ->
  analysis
(** Run {!Lepower_static.Absint.analyze} and derive the k-bound
    certificates and register census.  Pure — no engine state. *)

val findings :
  ?register_budget:int ->
  name:string ->
  budget:int ->
  single_writer:string list ->
  bindings:(string * Memory.Spec.t) list ->
  analysis ->
  Finding.t list
(** The four static rules over one analysis.  [name] anchors
    protocol-level findings (the accountant's census); [budget] is the
    target's claimed wait-freedom bound; [single_writer] and [bindings]
    scope the [static-swmr] rule exactly as {!Trace_check.check}'s
    dynamic counterpart. *)

val soundness_finding : name:string -> string -> Finding.t
(** One {!Lepower_static.Soundness} violation as a [static-soundness]
    finding anchored at [name].  Only a complete summary promises
    anything, so callers cross-check only those ([Lint] does). *)

val counterpart : string -> string option
(** [counterpart dynamic_rule] — the static rule subsuming a dynamic
    rule's root cause ([swmr-discipline] → [static-swmr], etc.), for the
    driver's cross-plane dedup. *)
