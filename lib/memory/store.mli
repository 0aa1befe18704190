(** The shared memory: a persistent map from locations to object states.

    The store is immutable; applying an operation returns a new store.  This
    makes configurations of the whole system first-class values, so the
    exhaustive explorer can branch over interleavings without copying.

    {!Arena} is the mutable twin: the same locations and specs in flat
    arrays, mutated in place with an explicit undo journal.  The engine's
    compiled backend ([Engine.Machine]) runs on it; this persistent type
    stays the reference implementation, and the two are cross-checked
    state-for-state in the test suite. *)

type t

val empty : t

val add : t -> string -> Spec.t -> t
(** [add store loc spec] installs a fresh object at [loc].  Replaces any
    previous object at the same location. *)

val create : (string * Spec.t) list -> t

val apply : t -> pid:int -> string -> Value.t -> (t * Value.t, string) result
(** [apply store ~pid loc op] applies [op] atomically to the object at
    [loc].  [Error _] when the location is unknown or the object rejects
    the operation. *)

val peek : t -> string -> Value.t option
(** Current state of the object at a location (for checkers and tests;
    protocols must go through {!apply}). *)

val poke : t -> string -> Value.t -> t
(** Forcibly set an object's state (test/adversary use only). *)

val freeze : t -> string -> t
(** Stuck-at fault (adversary move): the object at the location keeps its
    current state forever.  Subsequent operations compute their responses
    against the frozen state through the original spec — a successful-
    looking compare&swap included — but the state never changes.  The
    spec's [type_name] is wrapped as ["stuck(...)"] so checkers can see
    the fault.  Idempotent.  @raise Invalid_argument on an unknown
    location (like {!poke}). *)

val spec_of : t -> string -> Spec.t option

val locs : t -> string list
(** All locations, sorted.  Served from a key array cached at {!add}
    time — [apply]/[poke]/[freeze] never change the location set — so
    per-decision callers (the fuzz fault roller) do not re-walk the
    map. *)

val compare_states : t -> t -> int
(** Compare the two stores' states location-wise (specs are assumed equal);
    used to key visited-set entries in exhaustive exploration. *)

val state_bindings : t -> (string * Value.t) list
(** Every location's current state, sorted by location.  The canonical
    store component of the explorer's configuration fingerprint. *)

val fold_states : (string -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the state bindings in sorted-location order without
    materializing the binding list — the allocation-free variant of
    {!state_bindings} for hashing passes. *)

val pp : Format.formatter -> t -> unit

(** Mutable arena backing: the same objects in flat arrays indexed by
    interned location ids (id order = sorted location order), with an
    explicit undo journal.  [mark]/[undo_to] give O(1)-amortized
    snapshot/undo, so a depth-first explorer mutates on descent and pops
    the journal on backtrack instead of threading persistent maps.

    Not thread-safe; one arena per domain. *)
module Arena : sig
  type store := t

  type t

  val of_store : store -> t
  (** Freeze a persistent store into a fresh arena (empty journal). *)

  val to_store : t -> store
  (** Materialize the arena's current specs and states as a persistent
      store.  [to_store (of_store s)] is state- and spec-identical to
      [s]; after mutations it reflects the arena's current state. *)

  val n_locs : t -> int
  (** Number of locations; their interned ids are [0 .. n_locs - 1] in
      sorted-location order. *)

  val mem : t -> string -> bool

  val state_at : t -> int -> Value.t
  (** Current state of the object with interned id [i]. *)

  val id_of_loc : t -> string -> int option
  (** Interned id of a location name, if bound. *)

  val apply : t -> pid:int -> string -> Value.t -> (Value.t, string) result
  (** Like the persistent [apply], but mutates in place and journals the
      overwritten state.  Same error strings. *)

  val apply_id : t -> pid:int -> int -> Value.t -> (Value.t, string) result
  (** [apply] by interned id, skipping the name lookup. *)

  val commit_state : t -> int -> Value.t -> Value.t -> unit
  (** [commit_state a i old state'] records the transition [old ->
      state'] of object [i] exactly as {!apply_id}'s success branch
      would — journal entry, in-place write, last-delta scratch —
      without consulting the spec.  For callers (the engine's
      transition memo) that have already validated the transition
      against the object's spec; [old] must be [state_at a i]. *)

  val write_state : t -> int -> Value.t -> unit
  (** Raw in-place write of object [i]'s state, {e not} journaled: a
      subsequent {!undo_to} will not restore the overwritten value.
      Only for callers that save and restore the old state themselves
      (the engine's stack-undo naive walk); everything else should use
      {!apply}/{!apply_id}/{!commit_state}. *)

  val states_view : t -> Value.t array
  (** The live, id-indexed states array itself — the hot-loop
      counterpart of {!state_at}.  Reads are always fine; writes bypass
      the journal exactly like {!write_state} and carry the same
      obligation. *)

  val peek : t -> string -> Value.t option

  val mark : t -> int
  (** The current journal position — an O(1) snapshot token. *)

  val undo_to : t -> int -> unit
  (** Pop the journal back to a {!mark}, restoring every state
      overwritten since.  Cost: O(entries popped); each entry was O(1)
      to record, so a DFS pays O(1) amortized per step. *)

  val state_bindings : t -> (string * Value.t) list
  (** Current bindings in id (= sorted-location) order — list-identical
      to the persistent [state_bindings] of {!to_store}, built by one
      pass over the preallocated arrays (no sort, no map walk). *)

  val last_id : t -> int
  (** Interned id of the location the most recent successful {!apply}
      touched ([-1] before the first).  With {!last_old_state} and
      {!state_at}, a caller reads the single-binding delta of a step
      without re-deriving it: the reduced arena walk updates its
      visited-table key from it. *)

  val last_old_state : t -> Value.t
  (** The overwritten state of that location, as it was {e before} the
      most recent successful {!apply}. *)
end
