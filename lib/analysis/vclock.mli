(** Vector clocks over process ids [0 .. n-1].

    The trace discipline checker replays a linearized trace and maintains
    one clock per process, advanced on every own step and joined with the
    clock of the write a read observes.  Two events are {e concurrent}
    (racing) when neither clock dominates the other — the happens-before
    relation induced by program order plus reads-from edges, which is
    finer than the accidental linearization order the schedule produced.

    A component past a clock's length reads as 0, so clocks of different
    sizes compare and join as if padded with zeros; {!tick} grows a
    clock to cover its pid. *)

type t

val make : int -> t
(** The zero clock for [n] processes (all components 0). *)

val copy : t -> t
val get : t -> int -> int

val tick : t -> int -> t
(** Advance one component (persistent: returns a new clock, grown to
    at least [pid + 1] components). *)

val join : t -> t -> t
(** Componentwise maximum. *)

val leq : t -> t -> bool
(** [leq a b] — did [a] happen before (or equal) [b]? *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
