(* lepower: command-line driver for the library's experiments.

   Subcommands:
     elect      run a leader-election protocol and report the outcome
     explore    exhaustively check an election over every interleaving
     lint       run the Lepower_check analyzers over a protocol or fixture
     fuzz       adversarial-schedule fuzzing with optional fault injection
     replay     re-execute a recorded schedule certificate (and shrink it)
     emulate    run the Afek-Stupp reduction on a workload
     hierarchy  print the consensus-number table
     game       play the Lemma 1.1 move/jump game
     bounds     print the paper's closed-form bounds for a range of k

   Every run-producing subcommand takes --trace-out FILE (Chrome trace
   JSON: shared-memory operations + spans, loadable in chrome://tracing)
   and --metrics-out FILE (a Lepower_obs metrics snapshot). *)

open Cmdliner

let k_arg =
  Arg.(value & opt int 4 & info [ "k" ] ~doc:"Compare&swap register size.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler random seed.")

(* --- observability flags --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome-trace-format JSON of the run (shared-memory \
           operations and timing spans) to $(docv); load it in \
           chrome://tracing or ui.perfetto.dev.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON snapshot of all runtime metrics (counters, gauges, \
           histograms) to $(docv) after the run.")

(* --- profiling / live-telemetry flags (explore, fuzz, lint) --- *)

let prof_arg =
  Arg.(
    value & flag
    & info [ "prof" ]
        ~doc:
          "Enable phase-attributed profiling: scoped timers and GC \
           allocation deltas around the hot phases (engine step, \
           fingerprint/dedup, POR, frontier split, scheduler decision, \
           repro record, lint checks).  Prints the per-phase cost table \
           after the run and appends it to --progress-out as a \
           {\"type\":\"phases\"} JSONL row.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Print periodic campaign heartbeats as one-liners on stderr.")

let progress_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "progress-out" ] ~docv:"FILE"
        ~doc:
          "Stream campaign heartbeats (frontier size, configs/s, dedup \
           hit-rate, POR prune-rate, fuzz runs and ETA...) as strict JSONL \
           to $(docv); render with 'lepower report'.")

let progress_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "progress-interval" ] ~docv:"SECS"
        ~doc:"Seconds between heartbeats (default 1.0; 0 = every tick).")

let folded_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded-out" ] ~docv:"FILE"
        ~doc:
          "Collapse the recorded spans into Brendan-Gregg folded-stack \
           lines and write them to $(docv) (feed to flamegraph.pl).")

(* Run [f] with the telemetry plane the flags ask for: profiling phases
   enabled under --prof (table printed afterwards), spans enabled under
   --folded-out, heartbeats routed to stderr (--progress) and/or a JSONL
   stream (--progress-out).  [f] receives the heartbeat (if any) to tick
   from its progress callbacks. *)
let with_telemetry ~prof ~progress ~progress_out ~interval ~folded_out
    (f : Lepower_prof.Heartbeat.t option -> int) =
  if prof then Lepower_prof.Phase.enable ();
  if folded_out <> None then Lepower_obs.Span.enable ();
  match
    try Ok (Option.map open_out progress_out) with Sys_error e -> Error e
  with
  | Error e ->
    Printf.eprintf "lepower: cannot open progress stream: %s\n" e;
    1
  | Ok out_chan ->
    (* Heartbeats may arrive from worker domains; writes serialize here. *)
    let emit_mutex = Mutex.create () in
    let write_doc doc =
      Option.iter
        (fun oc ->
          Lepower_obs.Json.to_channel oc doc;
          output_char oc '\n')
        out_chan
    in
    let emit doc =
      Mutex.lock emit_mutex;
      write_doc doc;
      if progress then
        Format.eprintf "%a@." Lepower_prof.Heartbeat.pp_line doc;
      Mutex.unlock emit_mutex
    in
    let hb =
      if progress || out_chan <> None then begin
        (* Heartbeat rates and gauges come from the metrics plane. *)
        Lepower_obs.Metrics.enable ();
        Some (Lepower_prof.Heartbeat.create ~interval_s:interval ~emit ())
      end
      else None
    in
    let t0 = Unix.gettimeofday () in
    let code = f hb in
    let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
    if prof then begin
      write_doc (Lepower_prof.Phase.to_json ~wall_us ());
      Format.printf "%a" (Lepower_prof.Phase.pp_table ~wall_us) ()
    end;
    Option.iter
      (fun oc ->
        close_out oc;
        Printf.printf "progress stream written to %s\n"
          (Option.get progress_out))
      out_chan;
    let folded_code =
      Option.fold ~none:0
        ~some:(fun path ->
          try
            Lepower_prof.Folded.write path (Lepower_obs.Span.completed ());
            Printf.printf "folded stacks written to %s\n" path;
            0
          with Sys_error e ->
            Printf.eprintf "lepower: cannot write folded stacks: %s\n" e;
            1)
        folded_out
    in
    max code folded_code

(* Run [f] with the observability subsystems the flags ask for enabled,
   then write the requested artifacts.  [f] returns the exit code and the
   execution trace to export (oldest first), if the subcommand has one. *)
let with_obs ~trace_out ~metrics_out (f : unit -> int * Runtime.Trace.t option)
    =
  if trace_out <> None then Lepower_obs.Span.enable ();
  if metrics_out <> None then Lepower_obs.Metrics.enable ();
  let code, trace = f () in
  (* A bad output path must not look like a protocol failure: report it
     as a plain CLI error after the run itself already completed. *)
  let write what path writer =
    try
      writer path;
      Printf.printf "%s written to %s\n" what path;
      0
    with Sys_error e ->
      Printf.eprintf "lepower: cannot write %s: %s\n" what e;
      1
  in
  let metrics_code =
    Option.fold ~none:0
      ~some:(fun path ->
        write "metrics snapshot" path (fun path ->
            Lepower_obs.Export.write_json path
              (Lepower_obs.Export.metrics_json
                 ~meta:[ ("source", Lepower_obs.Json.String "lepower") ]
                 ())))
      metrics_out
  in
  let trace_code =
    Option.fold ~none:0
      ~some:(fun path ->
        write "chrome trace" path (fun path ->
            Runtime.Trace_export.write_chrome
              ~spans:(Lepower_obs.Span.completed ())
              path
              (Option.value ~default:[] trace)))
      trace_out
  in
  max code (max metrics_code trace_code)

(* Instance constructors validate their parameters eagerly and raise
   [Invalid_argument].  [with_instance build f] reports that as a usage
   error, with cmdliner's exit status for bad options.  Only [build] is
   guarded: an [Invalid_argument] escaping [f] is a bug and stays an
   uncaught exception. *)
let with_instance build f =
  match build () with
  | exception Invalid_argument msg ->
    Printf.eprintf "lepower: %s\n" msg;
    Cmd.Exit.cli_error
  | instance -> f instance

(* A run budget below 1 runs nothing and would report a clean verdict:
   reject it in a [with_instance] build. *)
let require_positive cmd flag v =
  if v < 1 then
    invalid_arg
      (Printf.sprintf "%s: --%s must be at least 1, got %d" cmd flag v)

(* --- elect --- *)

let elect_protocol =
  Arg.(
    value
    & opt
        (enum
           [ ("perm", `Perm); ("cas", `Cas); ("bcl", `Bcl); ("multi", `Multi) ])
        `Perm
    & info [ "protocol" ]
        ~doc:"Election protocol: perm, cas, bcl or multi (two registers of \
              sizes k and k-1).")

let elect_n =
  Arg.(
    value & opt (some int) None
    & info [ "n" ] ~doc:"Process count (default: the protocol's capacity).")

let elect_crash =
  Arg.(
    value & opt int 0
    & info [ "crash" ] ~doc:"Crash the lowest-numbered $(docv) processes."
        ~docv:"COUNT")

let election_instance ~k ~n protocol =
  match protocol with
  | `Perm ->
    let n = Option.value ~default:(Protocols.Perm.factorial (k - 1)) n in
    Protocols.Permutation_election.instance ~k ~n
  | `Cas ->
    let n = Option.value ~default:(k - 1) n in
    Protocols.Cas_election.instance ~k ~n
  | `Bcl ->
    let n = Option.value ~default:(k - 1) n in
    Protocols.Bcl_election.instance ~k ~n
  | `Multi ->
    let ks = [ k; max 2 (k - 1) ] in
    let n = Option.value ~default:(Protocols.Multi_election.capacity ~ks) n in
    Protocols.Multi_election.instance ~ks ~n

let protocol_name = function
  | `Perm -> "perm"
  | `Cas -> "cas"
  | `Bcl -> "bcl"
  | `Multi -> "multi"

let elect k seed protocol n crash trace_out metrics_out =
  with_instance (fun () -> election_instance ~k ~n protocol)
  @@ fun instance ->
  Printf.printf "protocol: %s\n" instance.Protocols.Election.name;
  with_obs ~trace_out ~metrics_out (fun () ->
      let result =
        if crash = 0 then
          Protocols.Election.run instance
            ~sched:(Runtime.Sched.random ~seed)
        else
          Protocols.Election.run_with_crashes_outcome instance ~seed
            ~crashed:(List.init crash (fun i -> i))
      in
      match result with
      | Ok outcome ->
        let trace =
          Runtime.Engine.trace outcome.Runtime.Engine.final
        in
        (match Protocols.Election.leader_of outcome with
        | Some leader ->
          Format.printf "leader: %a@." Memory.Value.pp leader;
          (0, Some trace)
        | None ->
          (* Everyone crashed before deciding: vacuously consistent. *)
          print_endline "no survivor decided";
          (0, Some trace))
      | Error e ->
        Printf.printf "violation: %s\n" e;
        (1, None))

let elect_cmd =
  Cmd.v
    (Cmd.info "elect" ~doc:"Run a leader-election protocol.")
    Term.(
      const elect $ k_arg $ seed_arg $ elect_protocol $ elect_n $ elect_crash
      $ trace_out_arg $ metrics_out_arg)

(* --- explore --- *)

(* explore's executor.  [arena] is the hot path for exhaustive walks
   (compiled step programs + mutable arena store); verdicts, statistics
   and decision sets are identical to [persistent] — see
   Runtime.Explore.Options.backend.  Fuzz and replay run forward only and
   always use the persistent engine. *)
let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("persistent", Runtime.Engine.Persistent);
             ("arena", Runtime.Engine.Arena);
           ])
        Runtime.Engine.Persistent
    & info [ "backend" ]
        ~doc:
          "Executor for the exhaustive walk: $(b,persistent) (immutable \
           reference configurations; also the faster choice when a hook \
           reads whole traces) or $(b,arena) (compiled step programs over \
           a mutable arena store with undo on backtrack — substantially \
           faster; verdicts, statistics and decision sets are \
           identical).  Composes with --dedup/--por/--static-por: the \
           reduced walk runs journal-free on the machine's flat arrays, \
           on one worker, with a visited-table key updated from each \
           step's delta (see DESIGN.md $(i,§7)); an instance with more \
           than 31 processes runs the reduced walk on the persistent \
           engine instead, because its sleep sets outgrow one machine \
           word.  \
           Programs whose compiled form outgrows the node budget \
           transparently fall back to closure interpretation.  Fuzz and \
           replay always run on the persistent engine: they move forward \
           only, where the arena's undo buys nothing.")

let explore_max_steps =
  Arg.(
    value & opt int 50
    & info [ "max-steps" ]
        ~doc:"Per-execution step bound for the exhaustive search.")

let explore_dedup =
  Arg.(
    value & flag
    & info [ "dedup" ]
        ~doc:
          "Memoize visited configurations (canonical fingerprint over store \
           + per-process state) and prune revisits.  Sound here: the \
           election predicate is trace-order-insensitive.  Under --backend \
           arena the visited table stores each configuration as a \
           fixed-width key of interned int ids, updated from each step's \
           delta and hashed when the table is probed.")

let explore_por =
  Arg.(
    value & flag
    & info [ "por" ]
        ~doc:
          "Sleep-set partial-order reduction: skip interleavings that only \
           reorder commuting steps (distinct locations, read-read, \
           crashes, decide steps).")

let explore_domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Split the top of a naive walk's schedule tree across $(docv) \
           OCaml domains running in parallel.  A run with --dedup, --por \
           or --static-por takes one worker whatever $(docv) is and \
           reports 'domains used: 1': its reductions prune against one \
           visited table.")

let explore_crash =
  Arg.(
    value & flag
    & info [ "crash-faults" ]
        ~doc:
          "Let the adversary also fail-stop any process at every choice \
           point (the wait-free adversary; multiplies the schedule space).")

let explore_static_por =
  Arg.(
    value & flag
    & info [ "static-por" ]
        ~doc:
          "Seed --por with static effect summaries: processes whose \
           footprints provably never conflict commute without per-move \
           decoding (implies --por; verdicts and decision sets are \
           identical on either backend).  Skipped with a note when the \
           summary is incomplete (e.g. a retry-loop protocol).")

(* Heartbeat payload for explore: the campaign vitals the ISSUE asks the
   stream to carry — throughput, reduction hit-rates, frontier size and
   (under --domains) the per-domain busy gauges. *)
let explore_hb_fields hb (p : Runtime.Explore.progress) =
  let open Lepower_obs in
  let elapsed = Lepower_prof.Heartbeat.elapsed_s hb in
  let rate =
    if elapsed > 0. then Float.of_int p.Runtime.Explore.p_configs /. elapsed
    else 0.
  in
  let ratio num den =
    if den = 0 then 0. else Float.of_int num /. Float.of_int den
  in
  let gauge name = Metrics.gauge_value (Metrics.gauge name) in
  let busy =
    if p.Runtime.Explore.p_domains <= 1 then []
    else
      List.init p.Runtime.Explore.p_domains (fun w ->
          ( Printf.sprintf "domain%d_busy_s" w,
            Json.Float (gauge (Printf.sprintf "explore.domain%d.busy_s" w)) ))
  in
  [
    ("kind", Json.String "explore");
    ("configs", Json.Int p.Runtime.Explore.p_configs);
    ("terminals", Json.Int p.Runtime.Explore.p_terminals);
    ("truncated", Json.Int p.Runtime.Explore.p_truncated);
    ("max_depth", Json.Int p.Runtime.Explore.p_max_depth);
    ("configs_per_s", Json.Float rate);
    ( "dedup_hit_rate",
      Json.Float
        (ratio p.Runtime.Explore.p_deduped
           (p.Runtime.Explore.p_deduped + p.Runtime.Explore.p_configs)) );
    ( "por_prune_rate",
      Json.Float
        (ratio p.Runtime.Explore.p_pruned
           (p.Runtime.Explore.p_pruned + p.Runtime.Explore.p_configs)) );
    ("frontier", Json.Float (gauge "explore.frontier.size"));
    ("domains", Json.Int p.Runtime.Explore.p_domains);
  ]
  @ busy

let explore k protocol n max_steps dedup por static_por domains crash_faults
    backend trace_out metrics_out prof progress progress_out interval
    folded_out =
  with_instance (fun () -> election_instance ~k ~n protocol)
  @@ fun instance ->
  Printf.printf "protocol: %s\n" instance.Protocols.Election.name;
  with_telemetry ~prof ~progress ~progress_out ~interval ~folded_out
  @@ fun hb ->
  with_obs ~trace_out ~metrics_out (fun () ->
      let progress_cb =
        Option.map
          (fun hb (p : Runtime.Explore.progress) ->
            Lepower_prof.Heartbeat.tick hb (fun () -> explore_hb_fields hb p))
          hb
      in
      let footprints =
        if not static_por then [||]
        else
          let summary =
            Lepower_static.Absint.analyze
              ~bindings:instance.Protocols.Election.bindings
              (List.init instance.Protocols.Election.n
                 instance.Protocols.Election.program)
          in
          match Lepower_static.Summary.footprints summary with
          | Some fps -> fps
          | None ->
            Printf.printf
              "static summary incomplete (%s): POR fast path disabled\n"
              (String.concat ", " summary.Lepower_static.Summary.limits);
            [||]
      in
      (* Aggregate per-item lowering reports under --backend arena: how
         much of each process compiled to the flat instruction DAG and
         whether anything bailed to the closure fallback. *)
      let low_items = ref 0 in
      let low_nodes = ref 0 in
      let low_hits = ref 0 in
      let low_misses = ref 0 in
      let low_bailed = ref 0 in
      let on_lowering =
        match backend with
        | Runtime.Engine.Persistent -> None
        | Runtime.Engine.Arena ->
          Some
            (fun reports ->
              incr low_items;
              Array.iter
                (fun (r : Runtime.Program.Compiled.report) ->
                  low_nodes := !low_nodes + r.Runtime.Program.Compiled.nodes;
                  low_hits := !low_hits + r.Runtime.Program.Compiled.hits;
                  low_misses := !low_misses + r.Runtime.Program.Compiled.misses;
                  if r.Runtime.Program.Compiled.bailed then incr low_bailed)
                reports)
      in
      match
        Protocols.Election.explore_stats instance ~max_steps
          ~options:
            {
              Runtime.Explore.Options.default with
              crash_faults;
              dedup;
              por = por || static_por;
              domains;
              backend;
              footprints;
              on_lowering;
              progress = progress_cb;
            }
      with
      | Ok stats ->
        (* One final forced beat so the stream always ends on the exact
           totals, even for runs shorter than the interval. *)
        Option.iter
          (fun hb ->
            Lepower_prof.Heartbeat.tick ~force:true hb (fun () ->
                explore_hb_fields hb
                  {
                    Runtime.Explore.p_configs =
                      stats.Runtime.Explore.configs_visited;
                    p_terminals = stats.Runtime.Explore.terminals;
                    p_truncated = stats.Runtime.Explore.truncated;
                    p_deduped = stats.Runtime.Explore.configs_deduped;
                    p_pruned = stats.Runtime.Explore.por_pruned;
                    p_max_depth = stats.Runtime.Explore.max_depth;
                    p_domains = stats.Runtime.Explore.domains_used;
                  }))
          hb;
        Printf.printf "schedules (terminals): %d\n"
          stats.Runtime.Explore.terminals;
        Printf.printf "truncated:             %d\n"
          stats.Runtime.Explore.truncated;
        Printf.printf "max depth:             %d\n"
          stats.Runtime.Explore.max_depth;
        Printf.printf "choice points:         %d\n"
          stats.Runtime.Explore.choice_points;
        Printf.printf "configs visited:       %d\n"
          stats.Runtime.Explore.configs_visited;
        Printf.printf "configs deduped:       %d\n"
          stats.Runtime.Explore.configs_deduped;
        Printf.printf "POR pruned moves:      %d\n"
          stats.Runtime.Explore.por_pruned;
        if stats.Runtime.Explore.por_checks > 0 then
          Printf.printf "POR fast-path hits:    %d of %d checks\n"
            stats.Runtime.Explore.por_fast_hits
            stats.Runtime.Explore.por_checks;
        Printf.printf "domains used:          %d\n"
          stats.Runtime.Explore.domains_used;
        (match backend with
        | Runtime.Engine.Persistent -> ()
        | Runtime.Engine.Arena ->
          Printf.printf
            "backend:               arena (%d machines; %d compiled nodes, \
             %d edge hits / %d misses, %d pids bailed to closures)\n"
            !low_items !low_nodes !low_hits !low_misses !low_bailed);
        (0, None)
      | Error e ->
        Printf.printf "violation: %s\n" e;
        (1, None))

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively check a leader election over every interleaving and \
          report the schedule-space statistics (small instances only).  \
          --dedup, --por and --domains opt into the reduced/parallel \
          explorer; the verdict is identical to the naive walk's.")
    Term.(
      const explore $ k_arg $ elect_protocol $ elect_n $ explore_max_steps
      $ explore_dedup $ explore_por $ explore_static_por $ explore_domains
      $ explore_crash $ backend_arg $ trace_out_arg $ metrics_out_arg
      $ prof_arg $ progress_arg $ progress_out_arg $ progress_interval_arg
      $ folded_out_arg)

(* --- lint --- *)

let lint_subject =
  Arg.(
    value
    & opt
        (enum
           [
             ("perm", `Perm); ("cas", `Cas); ("bcl", `Bcl); ("multi", `Multi);
             ("all", `All); ("fixtures", `Fixtures);
             ("broken-swmr", `Broken_swmr); ("broken-cas", `Broken_cas);
             ("spin", `Spin);
           ])
        `All
    & info [ "protocol" ]
        ~doc:
          "What to lint: an election protocol (perm, cas, bcl, multi), all \
           of them (all), every seeded-bug fixture (fixtures), or one \
           fixture (broken-swmr, broken-cas, spin).")

let lint_rules =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "rules" ] ~docv:"RULE,..."
        ~doc:
          "Keep only findings whose rule name is listed (e.g. \
           swmr-discipline,bounded-value,wait-freedom).  Default: all \
           rules.")

let lint_jsonl_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl-out" ] ~docv:"FILE"
        ~doc:
          "Write the findings and per-subject summaries as JSONL (one \
           strict JSON document per line) to $(docv).")

let lint_seeds =
  Arg.(
    value
    & opt (some int) None
    & info [ "seeds" ]
        ~doc:
          "Force sampled-schedule mode with this many seeded runs, at \
           least 1 (default: exhaustive when the instance is small \
           enough, else 64 samples).")

let lint_exhaustive =
  Arg.(
    value & flag
    & info [ "exhaustive" ]
        ~doc:"Force exhaustive interleaving exploration (small instances \
              only).")

let lint_max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ]
        ~doc:"Per-execution step cap override, at least 1.")

let lint_static =
  Arg.(
    value & flag
    & info [ "static" ]
        ~doc:
          "Run the static analysis plane (effect-summary abstract \
           interpretation: static-swmr, static-k-bound, \
           static-loop-bound, static-register-budget).  Alone, no \
           schedule is executed at all; combined with --exhaustive or \
           --seeds, both planes run, every execution is cross-checked \
           against the summary, and a dynamic finding whose static \
           counterpart already flagged the location is deduplicated.")

let lint_register_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "register-budget" ] ~docv:"N"
        ~doc:
          "Fail when the protocol's static footprint needs more than \
           $(docv) registers (with --static).")

let lint_targets ~k ~n subject =
  let open Lepower_check in
  let protocols subjects =
    List.map
      (fun p ->
        let instance = election_instance ~k ~n p in
        let subject =
          Repro_subject.election ~protocol:(protocol_name p) ~k
            ~n:instance.Protocols.Election.n ()
        in
        Lint.target_of_instance ~subject instance)
      subjects
  in
  match subject with
  | `Perm -> protocols [ `Perm ]
  | `Cas -> protocols [ `Cas ]
  | `Bcl -> protocols [ `Bcl ]
  | `Multi -> protocols [ `Multi ]
  | `All -> protocols [ `Cas; `Bcl; `Perm; `Multi ]
  | `Fixtures -> Lint.fixtures ()
  | `Broken_swmr -> [ Lint.broken_swmr_fixture () ]
  | `Broken_cas -> [ Lint.broken_cas_fixture ?n () ]
  | `Spin -> [ Lint.spin_fixture () ]

let lint_repro_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"FILE"
        ~doc:
          "Record a replayable schedule certificate for the first failing \
           sampled run and write it to $(docv) (sampled mode only; see \
           'lepower replay').")

let lint_shrink =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:
          "Minimize the recorded certificate's decision log by delta \
           debugging before writing it (only with --repro-out).")

let lint_hb_fields hb schedules =
  let open Lepower_obs in
  let elapsed = Lepower_prof.Heartbeat.elapsed_s hb in
  let rate =
    if elapsed > 0. then Float.of_int schedules /. elapsed else 0.
  in
  [
    ("kind", Json.String "lint");
    ("schedules", Json.Int schedules);
    ("schedules_per_s", Json.Float rate);
  ]

let lint k n subject rules seeds exhaustive max_steps static register_budget
    jsonl_out repro_out shrink metrics_out prof progress progress_out interval
    folded_out =
  let open Lepower_check in
  with_instance (fun () ->
      Option.iter (require_positive "lint" "seeds") seeds;
      Option.iter (require_positive "lint" "max-steps") max_steps;
      lint_targets ~k ~n subject)
  @@ fun targets ->
  with_telemetry ~prof ~progress ~progress_out ~interval ~folded_out
  @@ fun hb ->
  with_obs ~trace_out:None ~metrics_out @@ fun () ->
  let mode =
    if exhaustive then Some Lint.Exhaustive
    else Option.map (fun s -> Lint.Sample s) seeds
  in
  (* --static alone is the pure static plane; an explicit execution
     request (--exhaustive / --seeds) upgrades it to both planes. *)
  let static_mode =
    if not static then Lint.Static_off
    else if exhaustive || seeds <> None then Lint.Static_and_dynamic
    else Lint.Static_only
  in
  let recorded = ref None in
  let on_repro =
    Option.map
      (fun _path cert stats ->
        if !recorded = None then recorded := Some (cert, stats))
      repro_out
  in
  (* [Lint.lint]'s progress count restarts per target; fold targets into
     one cumulative schedule counter for the heartbeat stream. *)
  let scheds = ref 0 in
  let base = ref 0 in
  let progress_cb =
    Option.map
      (fun hb per_target ->
        scheds := !base + per_target;
        Lepower_prof.Heartbeat.tick hb (fun () -> lint_hb_fields hb !scheds))
      hb
  in
  let reports =
    List.map
      (fun t ->
        let r =
          Lint.lint ?mode ~static:static_mode ?register_budget ?rules
            ?max_steps ~shrink ?on_repro ?progress:progress_cb t
        in
        base := !scheds;
        r)
      targets
  in
  Option.iter
    (fun hb ->
      Lepower_prof.Heartbeat.tick ~force:true hb (fun () ->
          lint_hb_fields hb !scheds))
    hb;
  let repro_code =
    match (repro_out, !recorded) with
    | None, _ -> 0
    | Some path, Some (cert, stats) -> (
      Option.iter
        (fun (s : Runtime.Repro.shrink_stats) ->
          Printf.printf
            "shrunk: %d -> %d decisions (%d candidate replays)\n"
            s.Runtime.Repro.original s.Runtime.Repro.shrunk
            s.Runtime.Repro.attempts)
        stats;
      try
        Runtime.Repro.save path cert;
        Printf.printf "repro certificate written to %s\n" path;
        0
      with Sys_error e ->
        Printf.eprintf "lepower: cannot write certificate: %s\n" e;
        2)
    | Some _, None ->
      print_endline
        "no failing sampled run: no repro certificate recorded";
      0
  in
  List.iter (fun r -> Format.printf "%a@.@." Report.pp r) reports;
  let code =
    Option.fold ~none:0
      ~some:(fun path ->
        try
          Report.write_jsonl path reports;
          Printf.printf "findings written to %s\n" path;
          0
        with Sys_error e ->
          Printf.eprintf "lepower: cannot write findings: %s\n" e;
          2)
      jsonl_out
  in
  let clean = List.for_all Report.ok reports in
  if not clean then
    Printf.printf "lint: %d of %d subjects have findings\n"
      (List.length (List.filter (fun r -> not (Report.ok r)) reports))
      (List.length reports);
  (max (max code repro_code) (if clean then 0 else 1), None)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the Lepower_check analysis pass (trace discipline, \
          bounded-value, wait-freedom audit) over election protocols or \
          the seeded-bug fixtures; exit nonzero when any finding is \
          reported.")
    Term.(
      const lint $ k_arg $ elect_n $ lint_subject $ lint_rules $ lint_seeds
      $ lint_exhaustive $ lint_max_steps $ lint_static $ lint_register_budget
      $ lint_jsonl_out $ lint_repro_out $ lint_shrink $ metrics_out_arg
      $ prof_arg $ progress_arg $ progress_out_arg $ progress_interval_arg
      $ folded_out_arg)

(* --- fuzz --- *)

let fuzz_subject =
  Arg.(
    value
    & opt
        (enum
           [
             ("perm", `Perm); ("cas", `Cas); ("bcl", `Bcl); ("multi", `Multi);
             ("broken-swmr", `Broken_swmr); ("broken-cas", `Broken_cas);
             ("spin", `Spin);
           ])
        `Broken_cas
    & info [ "protocol" ]
        ~doc:
          "What to fuzz: an election protocol (perm, cas, bcl, multi) or a \
           seeded-bug fixture (broken-swmr, broken-cas, spin; see also \
           --flip).")

let fuzz_flip =
  Arg.(
    value & flag
    & info [ "flip" ]
        ~doc:
          "Use the DFS-adversarial variant of the broken-swmr/broken-cas \
           fixtures: the violating schedule order is the one exhaustive \
           depth-first search tries last, so randomized fuzzing wins by \
           orders of magnitude (the E14 benchmark fixtures).")

let fuzz_sched =
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("pct", `Pct); ("starve", `Starve) ])
        `Pct
    & info [ "sched" ]
        ~doc:
          "Adversarial scheduler: random (uniform walk), pct (priority \
           scheduling with --pct-depth change points), or starve (random \
           walk withholding --starve-pid for --starve-steps steps).")

let fuzz_depth =
  Arg.(
    value & opt int 3
    & info [ "pct-depth" ]
        ~doc:"PCT bug depth d: d-1 priority-change points per run.")

let fuzz_starve_pid =
  Arg.(value & opt int 0 & info [ "starve-pid" ] ~doc:"Pid to starve.")

let fuzz_starve_steps =
  Arg.(
    value & opt int 8
    & info [ "starve-steps" ]
        ~doc:"How many executed steps the starved pid is withheld for.")

let fuzz_runs =
  Arg.(
    value & opt int 256
    & info [ "runs" ] ~doc:"Run budget: stop after this many clean runs.")

let fuzz_faults =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Inject faults (fail-stop crashes, lost writes, stuck-at \
           registers) at the default rates; every injection is recorded \
           in the certificate's decision log, so replay re-injects them \
           bit-for-bit.")

let fuzz_max_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~doc:"Per-run step cap override.")

let fuzz_repro_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"FILE"
        ~doc:
          "Write the violation's schedule certificate to $(docv) (see \
           'lepower replay').")

let fuzz_no_shrink =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:
          "Skip delta-debugging minimization of the violation certificate \
           (fuzz shrinks by default).")

let fuzz_hb_fields hb (p : Runtime.Fuzz.progress) =
  let open Lepower_obs in
  let elapsed = Lepower_prof.Heartbeat.elapsed_s hb in
  let rate =
    if elapsed > 0. then Float.of_int p.Runtime.Fuzz.p_run /. elapsed else 0.
  in
  let eta =
    if rate > 0. then
      Float.of_int (p.Runtime.Fuzz.p_runs_total - p.Runtime.Fuzz.p_run) /. rate
    else 0.
  in
  [
    ("kind", Json.String "fuzz");
    ("run", Json.Int p.Runtime.Fuzz.p_run);
    ("runs_total", Json.Int p.Runtime.Fuzz.p_runs_total);
    ("injected", Json.Int p.Runtime.Fuzz.p_injected);
    ("steps", Json.Int p.Runtime.Fuzz.p_steps);
    ("runs_per_s", Json.Float rate);
    ("eta_s", Json.Float eta);
  ]

let fuzz k n subject flip sched depth starve_pid starve_steps runs seed faults
    max_steps repro_out no_shrink metrics_out prof progress progress_out
    interval folded_out =
  let open Lepower_check in
  let build () =
    require_positive "fuzz" "runs" runs;
    Option.iter (require_positive "fuzz" "max-steps") max_steps;
    match subject with
    | (`Perm | `Cas | `Bcl | `Multi) as p ->
      let instance = election_instance ~k ~n p in
      `Election
        ( instance,
          Repro_subject.election ~protocol:(protocol_name p) ~k
            ~n:instance.Protocols.Election.n () )
    | `Broken_swmr -> `Target (Lint.broken_swmr_fixture ~flip ())
    | `Broken_cas -> `Target (Lint.broken_cas_fixture ?n ~flip ())
    | `Spin -> `Target (Lint.spin_fixture ())
  in
  with_instance build @@ fun target ->
  with_telemetry ~prof ~progress ~progress_out ~interval ~folded_out
  @@ fun hb ->
  with_obs ~trace_out:None ~metrics_out @@ fun () ->
  let progress_cb =
    Option.map
      (fun hb (p : Runtime.Fuzz.progress) ->
        Lepower_prof.Heartbeat.tick hb (fun () -> fuzz_hb_fields hb p))
      hb
  in
  let kind =
    match sched with
    | `Random -> Runtime.Fuzz.Random_walk
    | `Pct -> Runtime.Fuzz.Pct { depth }
    | `Starve ->
      Runtime.Fuzz.Starve { victim = starve_pid; stall = starve_steps }
  in
  let plan = if faults then Runtime.Faults.default else Runtime.Faults.none in
  let shrink = not no_shrink in
  let name, outcome =
    match target with
    | `Election (instance, subject_json) ->
      ( instance.Protocols.Election.name,
        Protocols.Election.fuzz ~runs ~seed ?max_steps ~plan ~kind ~shrink
          ~subject:subject_json ?progress:progress_cb instance )
    | `Target t ->
      ( t.Lint.name,
        Lint.fuzz_target ~runs ~seed ?max_steps ~plan ~kind ~shrink
          ?progress:progress_cb t )
  in
  Option.iter
    (fun hb ->
      Lepower_prof.Heartbeat.tick ~force:true hb (fun () ->
          fuzz_hb_fields hb
            {
              Runtime.Fuzz.p_run = outcome.Runtime.Fuzz.runs;
              p_runs_total = runs;
              p_injected = outcome.Runtime.Fuzz.injected;
              p_steps = outcome.Runtime.Fuzz.steps;
            }))
    hb;
  Printf.printf "subject:  %s\n" name;
  Printf.printf "sched:    %s  seed=%d  faults=%s\n"
    (Runtime.Fuzz.kind_name kind) seed
    (if faults then "on" else "off");
  Printf.printf "runs:     %d (budget %d)  decisions=%d  injected=%d\n"
    outcome.Runtime.Fuzz.runs runs outcome.Runtime.Fuzz.steps
    outcome.Runtime.Fuzz.injected;
  match outcome.Runtime.Fuzz.cert with
  | None ->
    print_endline "no violation found";
    (0, None)
  | Some cert ->
    (match outcome.Runtime.Fuzz.first_violation with
    | Some i -> Printf.printf "violation at run %d (seed %d)\n" i (seed + i)
    | None -> ());
    Option.iter (Printf.printf "failure:  %s\n") outcome.Runtime.Fuzz.message;
    Option.iter
      (fun (s : Runtime.Repro.shrink_stats) ->
        Printf.printf "shrunk: %d -> %d decisions (%d candidate replays)\n"
          s.Runtime.Repro.original s.Runtime.Repro.shrunk
          s.Runtime.Repro.attempts)
      outcome.Runtime.Fuzz.shrink;
    let write_code =
      match repro_out with
      | None -> 0
      | Some path -> (
        try
          Runtime.Repro.save path cert;
          Printf.printf "repro certificate written to %s\n" path;
          0
        with Sys_error e ->
          Printf.eprintf "lepower: cannot write certificate: %s\n" e;
          2)
    in
    (max 1 write_code, None)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Hunt schedule-dependent violations with seeded adversarial \
          schedulers (random walk, PCT priority scheduling, starvation) \
          and optional fault injection (crashes, lost writes, stuck-at \
          registers).  Deterministic: a violation is emitted as a \
          replayable schedule certificate with the injected faults in its \
          decision log.  Exit 1 when a violation is found.")
    Term.(
      const fuzz $ k_arg $ elect_n $ fuzz_subject $ fuzz_flip $ fuzz_sched
      $ fuzz_depth $ fuzz_starve_pid $ fuzz_starve_steps $ fuzz_runs
      $ seed_arg $ fuzz_faults $ fuzz_max_steps $ fuzz_repro_out
      $ fuzz_no_shrink $ metrics_out_arg $ prof_arg $ progress_arg
      $ progress_out_arg $ progress_interval_arg $ folded_out_arg)

(* --- replay --- *)

let replay_cert =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CERT.json"
        ~doc:"Schedule certificate to replay (see --repro-out).")

let replay_shrink =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:
          "After reproducing, minimize the decision log by delta debugging \
           (ddmin + crash-removal + pid-merge passes, every candidate \
           validated by replay).")

let replay_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the minimized certificate to $(docv) (with --shrink).")

let replay cert_file shrink out trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  match Runtime.Repro.load cert_file with
  | Error e ->
    Printf.eprintf "lepower: cannot load certificate: %s\n" e;
    (1, None)
  | Ok cert -> (
    match Lepower_check.Repro_subject.resolve cert.Runtime.Repro.subject with
    | Error e ->
      Printf.eprintf "lepower: cannot resolve certificate subject: %s\n" e;
      (1, None)
    | Ok r -> (
      Printf.printf "subject:   %s\n" r.Lepower_check.Repro_subject.name;
      Printf.printf "recorded:  sched=%s%s  decisions=%d  version=%s\n"
        cert.Runtime.Repro.sched
        (match cert.Runtime.Repro.seed with
        | Some s -> Printf.sprintf " seed=%d" s
        | None -> "")
        (List.length cert.Runtime.Repro.decisions)
        cert.Runtime.Repro.version;
      if cert.Runtime.Repro.message <> "" then
        Printf.printf "failure:   %s\n" cert.Runtime.Repro.message;
      match
        Runtime.Repro.replay cert r.Lepower_check.Repro_subject.config
      with
      | Error e ->
        Printf.printf "replay rejected: %s\n" e;
        (1, None)
      | Ok final -> (
        let trace = Some (Runtime.Engine.trace final) in
        match
          r.Lepower_check.Repro_subject.failing
            (Runtime.Engine.Config_view.of_config final)
        with
        | None ->
          print_endline
            "replay verified (fingerprints match) but the subject's failure \
             predicate does not fire";
          (1, trace)
        | Some msg ->
          Printf.printf "reproduced: %s\n" msg;
          let code =
            if not shrink then 0
            else begin
              let failing c =
                r.Lepower_check.Repro_subject.failing c <> None
              in
              let cert', stats =
                Runtime.Repro.shrink ~failing
                  ~config0:r.Lepower_check.Repro_subject.config cert
              in
              Printf.printf
                "shrunk: %d -> %d decisions (%d candidate replays)\n"
                stats.Runtime.Repro.original stats.Runtime.Repro.shrunk
                stats.Runtime.Repro.attempts;
              match out with
              | None -> 0
              | Some path -> (
                try
                  Runtime.Repro.save path cert';
                  Printf.printf "minimized certificate written to %s\n" path;
                  0
                with Sys_error e ->
                  Printf.eprintf "lepower: cannot write certificate: %s\n" e;
                  2)
            end
          in
          (code, trace))))

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute a recorded schedule certificate: \
          rebuild the instance from the certificate's subject, drive the \
          engine along the recorded adversary decisions, verify initial and \
          final configuration fingerprints bit-for-bit, and re-check the \
          failure.  Exit 0 iff the failure reproduces.")
    Term.(
      const replay $ replay_cert $ replay_shrink $ replay_out $ trace_out_arg
      $ metrics_out_arg)

(* --- emulate --- *)

let emulate_workload =
  Arg.(
    value
    & opt (enum [ ("overcap", `Overcap); ("cycling", `Cycling) ]) `Overcap
    & info [ "workload" ]
        ~doc:"Emulated algorithm A: overcap (over-capacity election) or \
              cycling (value-revisiting stress).")

let emulate_vps =
  Arg.(value & opt int 280 & info [ "vps" ] ~doc:"Total virtual processes.")

let emulate_schedule =
  Arg.(
    value
    & opt
        (enum
           [ ("random", `Random); ("rr", `Round_robin); ("stale", `Stale_view) ])
        `Stale_view
    & info [ "schedule" ] ~doc:"Emulator schedule: random, rr or stale.")

let emulate_dump_tree =
  Arg.(
    value & flag
    & info [ "dump-tree" ]
        ~doc:"Print the final history structure T (Fig. 1) after the run.")

let emulate k seed workload vps schedule dump_tree trace_out metrics_out =
  let build () =
    let alg =
      match workload with
      | `Overcap -> Core.Workloads.over_capacity_cas_election ~k ~num_vps:vps
      | `Cycling -> Core.Workloads.cycling ~k ~rounds:1 ~num_vps:vps
    in
    (alg, Core.Emulation.small_params ~k)
  in
  with_instance build @@ fun (alg, params) ->
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let r = Core.Reduction.check ~seed ~schedule alg params in
  Format.printf "%a@." Core.Reduction.pp_report r;
  let s = Core.Emulation.stats r.Core.Reduction.outcome.Core.Emulation.final in
  Printf.printf
    "stats: %d iterations, %d simple ops, %d suspensions, %d releases, %d \
     attaches, %d splits, %d stalls\n"
    s.Core.Emulation.iterations s.Core.Emulation.simple_ops
    s.Core.Emulation.suspensions s.Core.Emulation.releases
    s.Core.Emulation.attaches s.Core.Emulation.splits
    s.Core.Emulation.stall_events;
  List.iter
    (fun (name, violations) ->
      List.iter
        (fun v -> Format.printf "audit %s: %a@." name Core.Invariants.pp_violation v)
        violations)
    (Core.Invariants.all r.Core.Reduction.outcome.Core.Emulation.final);
  (* The same history structures, through the lint pipeline: every active
     label's constructed Σ-history must satisfy the space bound. *)
  let findings =
    Lepower_check.Emulation_check.check
      r.Core.Reduction.outcome.Core.Emulation.final
  in
  List.iter
    (fun f -> Format.printf "lint: %a@." Lepower_check.Finding.pp f)
    findings;
  if dump_tree then
    Format.printf "@.history structure T:@.%a" Core.History_tree.pp
      (Core.Emulation.shared_tree r.Core.Reduction.outcome.Core.Emulation.final);
  let ok =
    r.Core.Reduction.width <= r.Core.Reduction.max_width
    && not (List.exists Lepower_check.Finding.is_reportable findings)
  in
  ((if ok then 0 else 1), None)

let emulate_cmd =
  Cmd.v
    (Cmd.info "emulate" ~doc:"Run the Afek-Stupp reduction on a workload.")
    Term.(
      const emulate $ k_arg $ seed_arg $ emulate_workload $ emulate_vps
      $ emulate_schedule $ emulate_dump_tree $ trace_out_arg $ metrics_out_arg)

(* --- hierarchy --- *)

let hierarchy () =
  List.iter
    (fun row -> Format.printf "%a@." Hierarchy.Separation.pp_row row)
    (Hierarchy.Separation.table ());
  0

let hierarchy_cmd =
  Cmd.v
    (Cmd.info "hierarchy" ~doc:"Print the consensus-number analysis table.")
    Term.(const hierarchy $ const ())

(* --- game --- *)

let game_m = Arg.(value & opt int 2 & info [ "m" ] ~doc:"Number of agents.")

let game m k seed metrics_out =
  with_instance (fun () -> Game.Board.create ~m ~k ()) @@ fun _board ->
  with_obs ~trace_out:None ~metrics_out @@ fun () ->
  let greedy, exact, bound = Game.Search.strategy_gap ~m ~k ~seed in
  Printf.printf "m=%d k=%d: greedy=%d exact=%d bound(m^k)=%d\n" m k greedy
    exact bound;
  ((if exact <= bound || m = 1 then 0 else 1), None)

let game_cmd =
  Cmd.v
    (Cmd.info "game" ~doc:"Play the Lemma 1.1 move/jump game.")
    Term.(const game $ game_m $ k_arg $ seed_arg $ metrics_out_arg)

(* --- rename --- *)

let rename_n =
  Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of processes.")

let rename n seed trace_out metrics_out =
  with_obs ~trace_out ~metrics_out @@ fun () ->
  let instance = Protocols.Splitter.renaming ~n in
  match Protocols.Splitter.run_random instance ~seed with
  | Ok names ->
    Printf.printf "names (by pid): %s  (space: %d)\n"
      (String.concat ", " (List.map string_of_int names))
      instance.Protocols.Splitter.name_space;
    (0, None)
  | Error e ->
    Printf.printf "violation: %s\n" e;
    (1, None)

let rename_cmd =
  Cmd.v
    (Cmd.info "rename"
       ~doc:"One-shot renaming from r/w registers (Moir-Anderson splitters).")
    Term.(const rename $ rename_n $ seed_arg $ trace_out_arg $ metrics_out_arg)

(* --- bounds --- *)

let bounds () =
  Printf.printf "%-4s %-14s %-14s %-10s %s\n" "k" "lower (k-1)!" "emulators m"
    "batch" "upper bound k^(k^2+3)";
  List.iter
    (fun k ->
      let m = Core.Bounds.emulators ~k in
      Printf.printf "%-4d %-14d %-14d %-10d %s\n" k
        (Core.Bounds.election_lower_bound ~k)
        m
        (Core.Bounds.suspension_batch ~k ~m)
        (Core.Bounds.upper_bound_string ~k))
    [ 3; 4; 5; 6; 7; 8 ];
  0

let bounds_cmd =
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the paper's closed-form bounds.")
    Term.(const bounds $ const ())

(* --- report --- *)

let report_files =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Telemetry artifacts to ingest, in any mix: heartbeat/phase \
           JSONL streams (--progress-out), metrics snapshots \
           (--metrics-out), and single-line BENCH_*.json documents.")

let report_require_phases =
  Arg.(
    value & flag
    & info [ "require-phases" ]
        ~doc:
          "Fail (exit 1) unless the inputs contain a phase-attribution \
           document with at least one nonzero row — the CI smoke's guard \
           that --prof actually measured something.")

let report files require_phases =
  match
    Lepower_prof.Report.run ~require_phases Format.std_formatter files
  with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "lepower report: %s\n" e;
    1

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a human-readable campaign report from recorded telemetry: \
          any mix of heartbeat/phase JSONL streams, metrics snapshots and \
          BENCH_*.json documents, offline — no live process needed.")
    Term.(const report $ report_files $ report_require_phases)

let () =
  let info =
    Cmd.info "lepower" ~version:"1.0.0"
      ~doc:
        "Delimiting the power of bounded size synchronization objects \
         (Afek & Stupp, PODC 1994) — executable reproduction."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            elect_cmd; explore_cmd; lint_cmd; fuzz_cmd; replay_cmd;
            emulate_cmd; hierarchy_cmd; game_cmd; rename_cmd; bounds_cmd;
            report_cmd;
          ]))
