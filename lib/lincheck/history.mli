(** Concurrent operation histories (Herlihy & Wing [12]).

    A history is the record of high-level operations — each spanning many
    primitive steps — with their invocation and response times.  Because
    implemented operations are not atomic, we capture them with an
    instrumentation object ({!recorder_spec}) installed in the store:
    programs bracket each high-level operation with [invoke]/[respond]
    marker operations, and the recorder keeps the globally ordered event
    log.  The checker ({!Lincheck}) then decides whether the history is
    linearizable w.r.t. a sequential specification. *)

module Value := Memory.Value

type operation = {
  pid : int;
  op : Value.t;  (** the high-level operation descriptor *)
  result : Value.t;
  inv_time : int;  (** position of the invocation marker in the log *)
  res_time : int;  (** position of the response marker *)
}

type t = operation list

val recorder_spec : unit -> Memory.Spec.t
(** Append-only event log; install at some location, e.g. ["history"]. *)

val invoke : string -> Value.t -> unit Runtime.Program.t
(** [invoke loc op] records the invocation of high-level operation [op]
    by the calling process. *)

val respond : string -> Value.t -> unit Runtime.Program.t
(** [respond loc result] records the completion of the calling process's
    pending operation. *)

val bracket :
  string -> Value.t -> Value.t Runtime.Program.t -> Value.t Runtime.Program.t
(** [bracket loc op body] = invoke; body; respond (with body's result). *)

val of_store : Memory.Store.t -> string -> t
(** Parse the recorder's state into a history.  Operations whose response
    marker is missing (the process crashed mid-operation) are dropped —
    the checker treats incomplete operations as never having happened,
    which is sound for the properties we test (we never check histories
    where a crashed operation's effect was observed). *)

val pp : Format.formatter -> t -> unit
