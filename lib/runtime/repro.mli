(** Deterministic reproduction: schedule certificates, replay, and
    counterexample shrinking.

    The paper's reduction argument hinges on bad runs being
    {e reconstructible}: an execution of the emulated algorithm must be
    recoverable from the shared-register state alone.  This module gives
    every failure our tools surface the same property.  Because programs
    are deterministic ({!Program}'s purity requirement) and schedulers are
    oblivious ({!Sched}'s contract), a run is fully determined by its
    initial configuration plus the sequence of adversary decisions — which
    process stepped, who was crashed, which faults were injected and
    where.  A {b schedule certificate}
    ({!type-t}) records exactly that, bracketed by two {!Fingerprint.digest}
    values, and is serialized as one strict {!Lepower_obs.Json} document:

    - {!record} wraps any {!Sched.t} in a decision logger and captures a
      certificate from a live {!Engine.run};
    - {!Explore.check_all} captures the DFS path to each violation, which
      {!of_decisions} turns into a certificate;
    - {!replay} re-executes a certificate against a freshly rebuilt
      configuration and verifies both digests bit for bit;
    - {!shrink} minimizes a failing certificate by delta debugging
      (chunk-removal ddmin, crash-removal and whole-pid-removal passes),
      validating every candidate by replay against a user predicate.

    Certificates carry an opaque [subject] JSON describing how to rebuild
    the instance; the runtime never interprets it — resolvers live above
    (see [Lepower_check.Repro_subject] and the [lepower replay] CLI). *)

(** Faults are first-class adversary decisions: a fuzz run that injects a
    lost write or freezes a register logs the injection in the same
    decision stream as the scheduling choices, so replaying the stream
    re-injects the faults at exactly the same points and the final
    fingerprint still matches bit for bit.  Certificates without fault
    decisions are unaffected (the format version stays 1; the alphabet
    grew, the encoding of the old letters did not change). *)
type decision =
  | Step of int  (** the adversary let this pid take its pending step *)
  | Crash of int  (** the adversary fail-stopped this pid *)
  | Lose of int
      (** the adversary let this pid step but discarded the store effect
          (lost-write fault, {!Engine.step_lost}) *)
  | Stick of string
      (** the adversary froze the object at this location at its current
          state (stuck-at fault, {!Memory.Store.freeze}) *)

module Decision : sig
  type t = decision

  val pid : t -> int option
  (** The process a decision concerns; [None] for {!Stick}, which targets
      a location, not a process. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val to_json : t -> Lepower_obs.Json.t
  (** Compact encoding: [Step 3] is ["s3"], [Crash 0] is ["c0"],
      [Lose 2] is ["l2"], [Stick "R"] is ["k:R"]. *)

  val of_json : Lepower_obs.Json.t -> (t, string) result
end

(** A schedule certificate.  [initial]/[final] are {!Fingerprint.digest}
    values of the configuration before the first and after the last
    decision; [subject] is the resolver-owned instance descriptor
    ([Null] when unknown); [version] is a best-effort [git describe] of
    the code that recorded it (informational — replay does not gate on
    it); [seed]/[sched]/[max_steps] document the producing run. *)
type t = {
  format : int;  (** certificate format version, currently 1 *)
  subject : Lepower_obs.Json.t;
  sched : string;
  seed : int option;
  max_steps : int;
  message : string;  (** what failed, as reported by the producer *)
  version : string;
  initial : string;
  final : string;
  decisions : decision list;
}

val with_message : t -> string -> t

val git_version : unit -> string
(** [$LEPOWER_GIT_DESCRIBE] if set, else [git describe --always --dirty],
    else ["unknown"].  Computed once per process. *)

(** {1 Recording} *)

val recording : Sched.t -> Sched.t * (unit -> decision list)
(** [recording sched] is a scheduler behaving exactly like [sched] plus a
    function returning the decisions executed so far (oldest first).  The
    log is fed by the engine's [observe] notifications, so it records the
    {e actual} schedule even when further wrappers veto proposals. *)

val record :
  ?subject:Lepower_obs.Json.t ->
  ?seed:int ->
  ?max_steps:int ->
  sched:Sched.t ->
  Engine.config ->
  Engine.outcome * t
(** Run the configuration to completion under the scheduler (via
    {!Engine.run}) while logging every decision; returns the outcome and
    a certificate with an empty [message] (attach one with
    {!with_message}). *)

val of_decisions :
  ?subject:Lepower_obs.Json.t ->
  ?sched:string ->
  ?seed:int ->
  ?max_steps:int ->
  message:string ->
  Engine.config ->
  decision list ->
  t
(** Certify an explicit decision list (e.g. an explorer DFS path): the
    list is strictly replayed from the configuration to compute both
    digests.  @raise Invalid_argument if some decision is inapplicable —
    that means the decisions do not describe a run of this
    configuration. *)

(** {1 Replay} *)

type applied = {
  final : Engine.config;
  applied : decision list;  (** decisions actually executed, oldest first *)
  skipped : int;  (** inapplicable decisions dropped (lenient mode only) *)
}

val apply :
  ?strict:bool ->
  Engine.config ->
  decision list ->
  (applied, string) result
(** Drive a configuration along a decision list.  [strict] (default
    [true]) fails on the first inapplicable decision — a
    [Step]/[Crash]/[Lose] of a pid that is not running, or a [Stick] of
    an unknown location — naming its index; with [~strict:false]
    inapplicable decisions are skipped and counted, which is what the
    shrinker's candidate evaluation uses.  Runs on the persistent
    engine: replay moves forward only, like a fuzz run, so the arena
    machine's undo would buy nothing ([Fuzz.run] has the numbers). *)

val replay : t -> Engine.config -> (Engine.config, string) result
(** [replay cert config] verifies [config]'s digest against
    [cert.initial], strictly applies the decisions, and verifies the
    resulting digest against [cert.final].  [Ok] returns the final
    configuration — the caller re-checks its predicate on it; [Error]
    names the first mismatch (a corrupted or mis-resolved certificate
    never replays silently).  Because the digest gates are bit-for-bit,
    a certificate from any producer — fuzz campaign, sampled lint, or
    an explorer witness found on either backend — replays here. *)

(** {1 Shrinking} *)

type shrink_stats = {
  attempts : int;  (** candidate replays performed *)
  original : int;  (** decision count before shrinking *)
  shrunk : int;  (** decision count after shrinking *)
}

val shrink :
  ?budget:int ->
  failing:(Engine.Config_view.t -> bool) ->
  config0:Engine.config ->
  t ->
  t * shrink_stats
(** Minimize the certificate's decision list while [failing] holds of a
    view of the replayed final configuration.  Three passes run to a fixpoint:
    adversary-removal (drop each [Crash]/[Lose]/[Stick] decision — so the
    surviving fault set is one the failure actually needs), pid-merge
    (drop {e all} decisions of one process), and chunk-removal ddmin down to
    granularity 1 — so the result is 1-minimal: removing any single
    decision no longer fails (up to the replay [budget], default 4000
    candidate replays).  Candidates replay leniently; the returned
    certificate is re-certified strictly from [config0], so it replays
    with {!replay} like any recorded one.  If the original certificate
    does not fail under [failing], it is returned unchanged.

    Observability: wrapped in a ["repro.shrink"] span; maintains
    [repro.replays] and [repro.shrink_attempts] counters. *)

(** {1 Serialization} *)

val to_json : t -> Lepower_obs.Json.t
val of_json : Lepower_obs.Json.t -> (t, string) result
val save : string -> t -> unit
val load : string -> (t, string) result
