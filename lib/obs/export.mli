(** Exporters: Chrome trace format, JSONL event streams, and metrics
    snapshots.

    Chrome trace output is the JSON-object form
    [{"traceEvents": [...], ...}] with complete ("ph":"X") events, loadable
    in [chrome://tracing] or [https://ui.perfetto.dev].  JSONL output is
    one compact JSON document per line — trivially parseable back with
    {!Json.of_string} line by line. *)

val span_to_chrome : Span.completed -> Json.t
(** One complete ("X") trace event, [pid] 0 (the wall-clock lane). *)

val chrome_of_events : ?extra:(string * Json.t) list -> Json.t list -> Json.t
(** Wrap pre-rendered trace events as a Chrome trace document; [extra]
    fields are appended to the top-level object (e.g. metadata). *)

val metrics_json : ?meta:(string * Json.t) list -> unit -> Json.t
(** A snapshot of the global metrics registry as one JSON object:
    [{"meta":{...},"counters":{...},"gauges":{...},"histograms":{...}}]. *)

val write_json : string -> Json.t -> unit
(** Write one compact document (plus a trailing newline) to the path. *)

val write_jsonl : string -> Json.t list -> unit
(** Write one compact document per line to the path. *)
