(** Canonical configuration fingerprints for exploration memoization.

    An {!Engine.config} cannot be compared structurally: each process's
    remaining program is a closure.  But programs are {e deterministic}
    functions of the responses they receive (the purity requirement of
    {!Program}), so within one exploration — where every process starts
    from a fixed program — a process's local state is fully determined by
    the sequence of [(loc, op, result)] triples it has performed, and a
    whole configuration by

    - the store's state bindings,
    - each process's status, and
    - each process's operation history.

    Two configurations with equal fingerprints have the same reachable
    futures and the same per-process trace projections; only the global
    interleaving order of their traces (and the [time] stamps, which are
    deliberately {e excluded}) may differ.  This is exactly the
    equivalence the explorer's [~dedup] mode prunes on.

    Histories are hash-chained persistent lists: extending by one event is
    O(size of that event's values), and the spine carries precomputed
    hashes so visited-set insertion never rehashes a deep history.

    The persistent explorer keys its visited set by {!t}.  The reduced
    arena walk keeps the same components in an int key of its own and
    hashes that key; from this module it uses only the histories
    ({!history_extend_hc}, {!history_hash}, {!history_equal}). *)

type history
(** One process's operation history, newest first, with precomputed
    chained hashes. *)

val history_empty : history

val history_extend : history -> Trace.event -> history
(** Record one more event for the owning process.  The event's [time]
    and [pid] fields are ignored: only [(loc, op, result)] enter the
    fingerprint, keeping it insensitive to the global interleaving. *)

type hcons
(** A hash-consing table for history extension, scoped to one walk. *)

val hcons_create : int -> hcons

val history_extend_hc :
  hcons ->
  history ->
  loc:string ->
  op:Memory.Value.t ->
  result:Memory.Value.t ->
  history
(** {!history_extend} from an event's parts, through a consing table —
    the arena-backed explorer extends histories straight from the
    machine's step delta, with no materialized {!Trace.event}.
    Re-extending the same (physical) tail with an equal event returns
    the {e same} history block, so histories re-derived along commuting
    interleavings become physically equal and {!history_equal}'s
    identity shortcut makes comparing them a pointer check instead of
    a full spine walk.  Purely an optimization — the returned history
    is structurally identical to {!history_extend}'s, with the same
    hash, and compares correctly against un-consed histories. *)

val history_hash : history -> int

val history_equal : history -> history -> bool
(** Structural equality on [(loc, op, result)] triples, physical-identity
    shortcut first — sibling branches share spines, so comparing a stored
    history against a live one is usually O(1).  This is the per-process
    component of {!equal}, exposed for visited-set implementations that
    keep histories outside the fingerprint record (the journal-free
    reduced walk's visited table interns histories with it and
    {!history_hash}). *)

type t
(** A fingerprint: canonical store bindings + per-process status and
    history, with a precomputed hash. *)

val make : Engine.config -> history array -> t
(** [make config histories] — [histories.(pid)] must be the history of
    events process [pid] performed, as maintained by the explorer via
    {!history_extend}. *)

val equal : t -> t -> bool

val hash : t -> int
(** {!combine} of two sums, each a native wrap-around [+]: the store
    sum adds {!store_binding_hash} over the bindings, and the process
    sum adds one term per process that mixes its pid, status and
    {!history_hash}. *)

val store_binding_hash : string -> Memory.Value.t -> int
(** The store sum's term for one [loc -> state] binding. *)

val combine : store_sum:int -> proc_sum:int -> int
(** Fold the two sums into the final non-negative hash. *)

module Tbl : Hashtbl.S with type key = t

val digest : Engine.config -> string
(** A fixed-width hex digest of the {e exact} configuration — store
    bindings, per-process status and step counts, and the full trace in
    global order with [time]/[pid] stamps.  Where {!make} deliberately
    identifies commuting schedules, [digest] separates them: it is the
    bit-for-bit certificate {!Repro} records at the start and end of a
    run and re-checks after replay. *)
