(** Wait-freedom auditor: symbolic unrolling of a program's step machine
    against an adversarial responder.

    Wait-freedom is a property of one process's {e own} steps: it must
    decide within a bounded number of shared-memory operations no matter
    what the rest of the system does.  The auditor explores the program's
    {!Runtime.Program.prim} tree directly — no scheduler, no other
    processes — feeding every operation each response the adversary could
    justify, and checks that every path reaches [Done] within the step
    budget.  A [repeat_until] loop whose exit depends on the environment
    shows up immediately: the adversary keeps answering "not yet" and the
    unrolling blows through the budget, producing an {!Exceeded} verdict
    with the witness operation path.

    The default adversary ({!store_responder}) answers an operation with
    every response the location's sequential spec can produce from any
    state in a growing pool (initial values plus every state any audited
    program's operations have produced).  This over-approximates real
    executions — a flagged program {e admits} an unbounded adversarial
    op sequence, it does not necessarily exhibit one under real
    schedules — which is why the lint driver corroborates [Exceeded]
    verdicts against actually-explored executions
    ({!Runtime.Engine.outcome} steps) before reporting an error. *)

module Value := Memory.Value

type verdict =
  | Bounded of int
      (** every adversarial path decides within this many operations —
          the audited wait-freedom bound *)
  | Exceeded of { budget : int; witness : (string * Value.t) list }
      (** some adversarial path performs more than [budget] operations;
          [witness] is its operation sequence, oldest first *)
  | Inconclusive of { explored : int }
      (** the node cap was hit before the unrolling was exhausted *)

val witness_summary : ?limit:int -> (string * Value.t) list -> string
(** The witness's operation locations, [" → "]-separated, elided past
    [limit] (default 8) with the total op count. *)

val pp_verdict : Format.formatter -> verdict -> unit

type responder = {
  respond : pid:int -> loc:string -> op:Value.t -> Value.t list;
}
(** The adversary: every response the environment may give [pid]'s [op]
    on [loc].  An empty list means the operation faults (the engine
    would stop the process), ending the path. *)

val store_responder : Memory.Store.t -> responder
(** The pooled-state adversary described above.  Stateful: the pool
    persists across calls, so auditing several programs with one
    responder lets each see the others' published states. *)

val audit :
  ?max_nodes:int ->
  budget:int ->
  responder:responder ->
  pid:int ->
  Runtime.Program.prim ->
  verdict
(** Unroll one program to the per-process step [budget] (the protocol's
    wait-freedom certificate).  [max_nodes] (default 100_000) caps the
    explored tree; hitting it yields {!Inconclusive}, never a false
    {!Exceeded}. *)

val audit_programs :
  ?max_nodes:int ->
  store:Memory.Store.t ->
  budget:int ->
  Runtime.Program.prim list ->
  (int * verdict) list
(** Audit each program (pid in list order) against one shared pooled
    responder, in two passes so every program's second-pass audit sees
    states first-pass audits of {e all} programs produced. *)
