(** Span tracing: wall-clock intervals around long-running phases
    ([Engine.run], [Explore.explore], emulation rounds, linearizability
    checks), exportable to Chrome trace format.

    Like {!Metrics}, spans are zero cost when disabled: [with_span]
    reads one flag and tail-calls its thunk.  When enabled, completed
    spans go to the installed {e sink} — by default an in-memory buffer
    drained with {!completed}; [set_sink] redirects the stream (e.g. to
    an incremental JSONL writer).

    Timestamps are microseconds since the process loaded this module,
    forced monotone (non-decreasing) so spans and Chrome traces stay
    well-ordered even if the wall clock steps backwards.

    The default buffering sink and the monotone clock are mutex-guarded,
    so spans may complete concurrently in Domain workers; a custom
    [set_sink] function must bring its own synchronization. *)

type completed = {
  name : string;
  start_us : float;  (** microseconds since program start *)
  dur_us : float;
  tid : int;  (** Chrome-trace thread lane; 0 unless the caller says *)
  args : (string * Json.t) list;
}

type sink = completed -> unit

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val set_sink : sink option -> unit
(** [Some f] routes every completed span to [f] instead of the buffer;
    [None] restores the default buffering sink. *)

val now_us : unit -> float
(** The monotone clock spans are stamped with. *)

val with_span :
  ?tid:int -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Time the thunk.  The span is recorded even if the thunk raises.
    When disabled this is just [f ()]. *)

val completed : unit -> completed list
(** The buffered spans so far, sorted by start time (the buffer is kept;
    use {!reset} to drop it).  Empty while a custom sink is installed. *)

val reset : unit -> unit
(** Drop all buffered spans. *)
