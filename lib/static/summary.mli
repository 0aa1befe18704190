(** Effect summaries: what a protocol {e may} do, computed without running
    a single schedule.

    A summary is the output of {!Absint.analyze}: per-process may-read /
    may-write location sets, an abstract written-value map, a syntactic
    operation bound, plus a protocol-level abstract store Σ̂ mapping every
    location to the set of states it may ever hold (initial value
    included).

    {b Soundness contract.}  When {!t.complete} is [true] the analysis
    reached a fixpoint with no cap hit, and the summary over-approximates
    every concrete execution: each trace event's location lies in the
    acting process's footprint, mutations lie in its may-write set, and
    every store state ever reached lies in Σ̂ ({!Soundness.check} verifies
    this on real executions).  When [complete] is [false] the sets are
    best-effort evidence — still useful for presence facts (a process
    {e was seen} writing a location) but not for certificates. *)

module Sset : Set.S with type elt = string

(** Static operation bound of one process: the deepest chain of
    shared-memory operations the interpreter walked, or [Unbounded] when
    the depth cap was hit (a syntactic retry loop). *)
type op_bound = Bounded of int | Unbounded

type per_pid = {
  pid : int;
  may_read : Sset.t;  (** locations a non-mutating operation may touch *)
  may_write : Sset.t;  (** locations a mutating operation may touch *)
  written : (string * Absval.t) list;
      (** per-location abstraction of the states {e this} process's
          mutations may produce (sorted by location) *)
  op_bound : op_bound;
  terminates : bool;
      (** some path reached [Done] under the pooled responder *)
  node_capped : bool;
      (** the per-pass node cap cut this process's walk — paths exist
          that the interpreter never saw *)
}

type t = {
  per_pid : per_pid list;  (** pid order *)
  sigma : (string * Absval.t) list;
      (** Σ̂: every store location's abstract state set, initial value
          included (sorted by location) *)
  complete : bool;
      (** fixpoint reached with no value/depth/node cap hit anywhere *)
  passes : int;  (** fixpoint iterations run *)
  nodes : int;  (** total interpreter nodes visited, all passes *)
  limits : string list;
      (** which caps were hit, e.g. ["value-cap:log.0"; "depth-cap:p1"] —
          empty iff [complete] *)
}

val footprint : per_pid -> Sset.t
(** may-read ∪ may-write. *)

val register_count : per_pid -> int
(** Size of the process's static footprint — the registers it needs. *)

val protocol_footprint : t -> Sset.t
val protocol_register_count : t -> int

val sigma_of : t -> string -> Absval.t option

val khat : t -> string -> int option
(** [khat t loc] — the static bound k̂ on distinct states of [loc]:
    [Some 0] for an unknown location, [None] when widened to ⊤. *)

val footprints : t -> (string list * string list) array option
(** Per-pid (may-read, may-write) location lists, indexed by pid — the
    shape {!Runtime.Explore.Options} accepts for the summary-seeded POR
    fast path.  [None] unless the summary is {!t.complete}: an incomplete
    footprint could under-approximate, and feeding it to the explorer
    would prune dependent interleavings. *)

val pp_op_bound : Format.formatter -> op_bound -> unit
val pp_per_pid : Format.formatter -> per_pid -> unit
val pp : Format.formatter -> t -> unit
