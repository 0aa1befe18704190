(** The compare&swap-(k) object — the paper's central object (§2).

    A register whose value ranges over the finite alphabet
    [Σ = {⊥, 0, 1, …, k−2}] (so it can hold exactly [k] distinct values),
    supporting the single operation

    {v c&s(a → b)(r): prev := r; if prev = a then r := b; return prev v}

    An operation {e succeeds} if it changes the register's value.  The
    object rejects operations naming values outside Σ — that is precisely
    the boundedness the paper studies, and protocols that try to smuggle
    extra values through the register must fail. *)

module Value := Memory.Value

val bottom : Value.t
(** The initial value ⊥, encoded as [Sym "_|_"]. *)

val value : int -> Value.t
(** [value i] is the alphabet symbol [i], for [0 <= i <= k-2]. *)

val alphabet : k:int -> Value.t list
(** [⊥; 0; …; k−2] — all [k] values. *)

val spec : k:int -> Memory.Spec.t
(** A compare&swap-(k) register initialized to ⊥. *)

val generic_spec : values:Value.t list -> init:Value.t -> Memory.Spec.t
(** A compare&swap register over an arbitrary finite alphabet (still
    bounded: operations naming values outside [values] are rejected).
    [spec ~k] = [generic_spec ~values:(alphabet ~k) ~init:bottom].

    The alphabet is hashed into a table once, when the spec is built.
    Each operation then checks its two values with one
    {!Memory.Value.hash} and one bucket probe each, whatever [k] is.
    The spec is applied on every persistent-engine step, replay and
    shrink attempt, which is why membership is not a scan of
    [values]. *)

val cas_op : expected:Value.t -> desired:Value.t -> Value.t

val cas :
  string -> expected:Value.t -> desired:Value.t -> Value.t Runtime.Program.t
(** Perform [c&s(expected → desired)]; returns the previous value. *)

val read : string -> Value.t Runtime.Program.t
(** Read the register via [c&s(a → a)] for an arbitrary [a] — compare&swap
    subsumes read without extra hardware support. *)

val succeeded :
  previous:Value.t -> expected:Value.t -> desired:Value.t -> bool
(** Did a [c&s(expected → desired)] that returned [previous] change the
    register?  True iff [previous = expected] and [expected <> desired]
    (the paper's convention: an operation succeeds only if it {e changes}
    the value, so [c&s(a→a)] never succeeds). *)
