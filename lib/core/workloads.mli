(** Emulated algorithms "A" for exercising the reduction.

    The reduction's hypothesis is an {e over-capacity} election algorithm;
    no correct one exists, so the experiments feed the emulation three
    kinds of subject:

    - [over_capacity_cas_election]: Π processes all race one
      [c&s(⊥ → id mod (k−1))] and decide the winner value — the
      "too-strong" A whose emulation visibly manufactures
      (k−1)-set-consensus among the emulators (each label's run decides
      its first value);
    - [cycling]: v-processes drive the register around value cycles for
      several rounds before deciding — not an election at all, but the
      workload that exercises the deep machinery (CanRebalance releases,
      in-tree attachments, FromParent/ToParent paths), since an election
      algorithm built from fresh-value chains never revisits a value;
    - any genuine {!Protocols.Election.instance} via
      {!Emulation.of_election}. *)

val over_capacity_cas_election : k:int -> num_vps:int -> Emulation.algorithm
(** @raise Invalid_argument when [k < 2]: the register needs at least one
    non-bottom value. *)

val cycling : k:int -> rounds:int -> num_vps:int -> Emulation.algorithm
(** v-process [i] repeatedly attempts [c&s(v_j → v_{j+1})] around the
    cycle ⊥ → 0 → 1 → … → (k−2) → ⊥ starting at phase [i mod k],
    retrying against whatever value it last saw, for [rounds] successful
    operations, then decides its id.  @raise Invalid_argument when
    [k < 2]. *)

val rmw_via_cas :
  k:int -> transforms:(string * (Sigma.t -> Sigma.t)) list -> rounds:int ->
  num_vps:int -> Emulation.algorithm
(** The §4 conjecture's subject: an algorithm over an arbitrary size-k
    read-modify-write register, compiled to the compare&swap-(k) via the
    classical read–compute–c&s retry loop (a successful [c&s(v → f v)]
    {e is} an atomic application of [f]).  v-process [i] applies its
    [i mod (#transforms)]-th transformation [rounds] times, then decides
    its id.  Transformations with [f v = v] complete immediately on such
    values (an RMW that does not change the state is a read). *)
