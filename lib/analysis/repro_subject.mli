(** Certificate subject resolution: from the opaque [subject] JSON a
    {!Runtime.Repro.t} carries to a rebuilt initial configuration and a
    failure predicate.

    The runtime treats certificate subjects as uninterpreted data (see
    {!Runtime.Repro}); this module owns the vocabulary.  Two kinds are
    defined:

    - [{"kind":"election","protocol":P,"k":K,"n":N,"crashed":[..]}] — an
      election protocol instance ([perm], [cas], [bcl] or [multi],
      mirroring the CLI's [--protocol]), with the listed pids crashed
      before the first step;
    - [{"kind":"fixture","name":F,"n":N?,"flip":B?}] — a [Lint]
      seeded-bug fixture ([broken-swmr], [broken-cas] with its process
      count, [spin]); [flip] selects the DFS-adversarial variants the
      fuzz benchmark uses (absent means [false]).

    Builders and resolver are kept in one place so a certificate recorded
    by any producer ([lepower lint], {!Protocols.Election.explore_repro},
    the lincheck harness) replays through the same code path. *)

(** A resolved subject: the rebuilt initial configuration (digest-equal
    to the one the certificate was recorded from, for an honest
    certificate) and the failure predicate replayed states are judged
    by — [Some message] when the state exhibits the subject's failure.
    [failing] reads through the backend-neutral
    {!Runtime.Engine.Config_view.t} (wrap a materialized configuration
    with {!Runtime.Engine.Config_view.of_config}).  It tolerates
    partial runs: an execution prefix that has not yet failed is
    [None], never a false positive (this is what makes it sound as a
    {!Runtime.Repro.shrink} predicate). *)
type resolved = {
  name : string;
  config : Runtime.Engine.config;
  failing : Runtime.Engine.Config_view.t -> string option;
}

val election :
  protocol:string ->
  k:int ->
  n:int ->
  ?crashed:int list ->
  unit ->
  Lepower_obs.Json.t
(** Subject descriptor for an election instance.  [protocol] is one of
    ["perm"], ["cas"], ["bcl"], ["multi"]; [n] is the {e resolved}
    process count (record the default explicitly — replay must not
    re-derive it). *)

val fixture : ?n:int -> ?flip:bool -> string -> Lepower_obs.Json.t
(** Subject descriptor for a [Lint] fixture, by short name
    (["broken-swmr"], ["broken-cas"], ["spin"]).  Matches what the
    fixtures themselves embed in their targets; [flip] defaults to
    [false] and is only recorded when [true]. *)

val of_target : Lint.target -> resolved
(** Resolve a lint target directly (no JSON round-trip): initial
    configuration from its bindings and programs; failure =
    {!Lint.failing}. *)

val resolve : Lepower_obs.Json.t -> (resolved, string) result
(** Interpret a certificate subject.  Errors name the missing or unknown
    field; [Null] subjects resolve to an error (nothing to rebuild). *)
