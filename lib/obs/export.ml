let span_to_chrome (s : Span.completed) =
  Json.Obj
    [
      ("name", Json.String s.Span.name);
      ("cat", Json.String "span");
      ("ph", Json.String "X");
      ("ts", Json.Float s.Span.start_us);
      ("dur", Json.Float s.Span.dur_us);
      ("pid", Json.Int 0);
      ("tid", Json.Int s.Span.tid);
      ("args", Json.Obj s.Span.args);
    ]

let chrome_of_events ?(extra = []) events =
  Json.Obj
    (("traceEvents", Json.List events)
    :: ("displayTimeUnit", Json.String "ms")
    :: extra)

let metrics_json ?(meta = []) () =
  match Metrics.snapshot_to_json (Metrics.snapshot ()) with
  | Json.Obj fields ->
    if meta = [] then Json.Obj fields
    else Json.Obj (("meta", Json.Obj meta) :: fields)
  | other -> other

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      Json.to_channel oc json;
      output_char oc '\n')

let write_jsonl path jsons =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun json ->
          Json.to_channel oc json;
          output_char oc '\n')
        jsons)
