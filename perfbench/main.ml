(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--wrong-answer]
     main.exe --self-test BENCHMARK.json

   One workload per process, on one domain.  An untraced run (--trace 0)
   times whole passes and prints the end-to-end metrics; a traced run
   (--trace 1) records the benchmark's own spans around each layer call,
   runs the per-layer probe loops, and prints the per-layer metrics.  The
   last stdout line is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

open Util
module Json = Lepower_obs.Json

let end_to_end = [ ("setup_s", "s"); ("verdict_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    ("compile.of_config_us", "us");
    ("compile.nodes", "count");
    ("compile.bailed_pids", "count");
    ("machine.walk_ns_per_config", "ns");
    ("machine.step_undo_ns", "ns");
    ("machine.step_frame_ns", "ns");
    ("store_arena.apply_undo_ns", "ns");
    ("gc.minor_words_per_config", "words");
    ("view.check_config_ns", "ns");
    ("view.trace_us", "us");
    ("view.terminals", "count");
    ("explore.configs_per_s", "1/s");
    ("explore.configs_visited", "count");
    ("explore.choice_points", "count");
    ("fingerprint.extend_ns", "ns");
    ("fingerprint.digest_us", "us");
    ("visited.snapshot_ns", "ns");
    ("visited.probe_ns", "ns");
    ("visited.bytes_per_config", "B");
    ("visited.dedup_ratio", "ratio");
    ("por.access_enc_ns", "ns");
    ("por.checks", "count");
    ("por.pruned", "count");
    ("por.prune_ratio", "ratio");
    ("por.fast_hit_ratio", "ratio");
    ("engine.step_ns", "ns");
    ("store.apply_ns", "ns");
    ("lint.analyze_us", "us");
    ("lint.schedules_per_s", "1/s");
    ("lint.findings", "count");
    ("fuzz.run_us", "us");
    ("sched.pct_choose_ns", "ns");
    ("fuzz.steps_per_run", "count");
    ("fuzz_runs_per_s", "1/s");
    ("repro_p50_s", "s");
    ("repro_p90_s", "s");
    ("repro.hunts", "count");
    ("repro.shrink_ms", "ms");
    ("repro.replays_per_shrink", "count");
    ("repro.shrink_ratio", "ratio");
    ("repro.replay_us", "us");
    ("repro.runs_to_violation", "count");
    ("prof.disabled_probe_ns", "ns");
    ("trace.overhead_ratio", "ratio");
    ("trace.coverage", "ratio");
  ]

let workload_names = List.map fst Workloads.all

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* Untraced timed phases must measure the libraries with every probe
   switched off. *)
let assert_probes_disabled () =
  if
    Lepower_obs.Metrics.is_enabled () || Lepower_obs.Span.is_enabled ()
    || Lepower_prof.Phase.is_enabled ()
  then die "library metrics, spans or phases are enabled during a timed phase"

let probe_slot = Lepower_prof.Phase.make "perfbench.disabled_probe"

let disabled_probe_ns ~budget =
  assert_probes_disabled ();
  per_call_ns ~budget (fun _ ->
      Lepower_prof.Phase.leave (Lepower_prof.Phase.enter probe_slot))

let result_line ~tally metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (tally.failed = 0));
         ("attempted", Json.Int tally.attempted);
         ("failed", Json.Int tally.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, value) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Float value); ("unit", Json.String unit) ]
                  ))
                metrics) );
       ])

(* Start this executable with [args], stderr discarded and stdout to
   [stdout] (default: discarded too); its pid, for [wait_exit]. *)
let run_self ~stdout args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let out = Option.value ~default:null stdout in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out null
  in
  Unix.close null;
  pid

let wait_exit pid = snd (Unix.waitpid [] pid)

(* The parsed last line of a child's stdout. *)
let run_child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = run_self ~stdout:(Some out_w) args in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> acc
  in
  let out = lines [] in
  close_in ic;
  match (wait_exit pid, out) with
  | Unix.WEXITED 0, last :: _ -> Json.of_string last
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "exit code %d" c)
  | _, _ -> Error "killed"

(* Set-up time is the span from process start to the first timed call:
   runtime and library initialization, building the inputs from the
   public constructors, and the untimed guard.  Each sample starts this
   executable with --setup-only, which does exactly that and exits; the
   metric is the median of [setup_samples] samples. *)
let setup_samples = 15

let setup_sample child_args =
  let t0 = now () in
  let pid = run_self ~stdout:None (child_args @ [ "--setup-only" ]) in
  match wait_exit pid with
  | Unix.WEXITED 0 -> now () -. t0
  | _ -> die "the --setup-only child failed"

let min_passes = 3

let untraced (w : Workloads.t) ~child_args ~seconds tally =
  w.setup ();
  w.guard tally;
  let quiet = spans ~enabled:false in
  assert_probes_disabled ();
  (* The set-up samples are spread evenly over the timed phase, between
     passes, so that a burst of contention on the host moves one sample
     rather than all of them. *)
  let setup = ref [] in
  let t0 = now () in
  let rec loop acc =
    let elapsed = now () -. t0 in
    let due =
      1 + int_of_float (float_of_int setup_samples *. elapsed /. seconds)
    in
    while List.length !setup < min setup_samples due do
      setup := setup_sample child_args :: !setup
    done;
    if List.length acc >= min_passes && elapsed >= seconds then acc
    else begin
      (* Each pass starts from a compacted heap, as in a fresh process,
         so one pass's garbage neither inflates the next pass's peak nor
         lands in its collection work. *)
      Gc.compact ();
      let (), dt = time (fun () -> w.pass quiet tally) in
      loop (dt :: acc)
    end
  in
  let passes = loop [] in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* The upper quartile, not the median: on a shared host the speed of a
     pass changes every few seconds, and the share of fast passes changes
     from run to run.  The median follows that share; the upper quartile
     sits on the slow speeds, which come back in nearly every run
     (README.md, Steadiness). *)
  [
    ("setup_s", median !setup);
    ("verdict_s", quantile 0.75 passes);
    ("peak_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1e6);
  ]

let max_pairs = 5

let traced (w : Workloads.t) ~name ~seconds ~seed ~budget tally =
  let t0 = now () in
  let sp = spans ~enabled:true in
  let quiet = spans ~enabled:false in
  with_span sp "setup" w.setup;
  w.guard tally;
  (* Untraced and traced passes alternate for half the budget, at most
     [max_pairs] times; the rest goes to the probe loops. *)
  let rec loop plain traced_ =
    if
      plain <> []
      && (now () -. t0 >= 0.5 *. seconds || List.length plain >= max_pairs)
    then (plain, traced_)
    else begin
      assert_probes_disabled ();
      Gc.compact ();
      let (), u = time (fun () -> w.pass quiet tally) in
      Gc.compact ();
      let (), t =
        time (fun () -> with_span sp "pass" (fun () -> w.pass sp tally))
      in
      loop (u :: plain) (t :: traced_)
    end
  in
  let plain, traced_ = loop [] [] in
  let verdict_s = median plain in
  let layers = w.layers sp ~verdict_s in
  let probe_ns =
    with_span sp "probe.disabled_phase" (fun () ->
        disabled_probe_ns ~budget)
  in
  let measured =
    layers
    @ [
        ("prof.disabled_probe_ns", probe_ns);
        ("trace.overhead_ratio", median traced_ /. verdict_s);
      ]
  in
  let run_id = Printf.sprintf "%s-seed%d-pid%d" name seed (Unix.getpid ()) in
  (try Unix.mkdir ".perfbench" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_spans sp ~run_id ~t0
    (Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" name seed);
  (* Every per-layer metric is printed on every workload; a layer this
     workload does not exercise reads 0. *)
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured)))
    per_layer

let run ~workload ~seed ~seconds ~trace ~size ~wrong ~setup_only =
  let budget = Float.min 0.6 (Float.max 0.005 (seconds /. 50.)) in
  let w =
    match List.assoc_opt workload Workloads.all with
    | Some make ->
      make { Workloads.size; seed; wrong; traced = trace; probe_budget = budget }
    | None ->
      die "unknown workload %S (expected one of: %s)" workload
        (String.concat ", " workload_names)
  in
  let tally = tally () in
  let size_arg = match size with Workloads.Full -> "full" | Tiny -> "tiny" in
  let child_args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--size"; size_arg ]
  in
  if setup_only then begin
    w.setup ();
    w.guard tally;
    exit 0
  end;
  let values =
    if trace then traced w ~name:workload ~seconds ~seed ~budget tally
    else untraced w ~child_args ~seconds tally
  in
  let units = if trace then per_layer else end_to_end in
  List.iter
    (fun m -> prerr_endline ("perfbench: miss: " ^ m))
    (List.rev tally.misses);
  Printf.printf "workload %s, seed %d%s, size %s, trace %d\n" workload seed
    (if w.seeded then ""
     else " (exhaustive: the timed work does not depend on the seed)")
    size_arg
    (if trace then 1 else 0);
  print_endline
    (result_line ~tally
       (List.map
          (fun (name, unit) -> (name, unit, List.assoc name values))
          units))

(* --- self-test ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let self_test benchmark_json =
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let spec =
    match Json.of_string (read_file benchmark_json) with
    | Ok j -> j
    | Error e -> die "%s: %s" benchmark_json e
  in
  let list key =
    match Json.member key spec with
    | Some (Json.List l) -> l
    | _ -> die "%s: no %s" benchmark_json key
  in
  let str key j =
    match Json.member key j with
    | Some (Json.String s) -> s
    | _ -> die "%s: an entry has no %s" benchmark_json key
  in
  let metrics key = List.map (fun j -> (str "name" j, str "unit" j)) (list key) in
  let names = List.map (str "name") (list "workloads") in
  if List.sort compare names <> List.sort compare workload_names then
    problem "BENCHMARK.json workloads %s differ from the benchmark's"
      (String.concat "," names);
  let check_metrics what expected kv =
    List.iter
      (fun (name, unit) ->
        match List.filter (fun (k, _) -> k = name) kv with
        | [ (_, m) ] -> (
          (match Json.member "unit" m with
          | Some (Json.String u) when u = unit -> ()
          | _ -> problem "%s: metric %s lacks unit %s" what name unit);
          match Json.member "value" m with
          | Some (Json.Float _ | Json.Int _) -> ()
          | _ -> problem "%s: metric %s has no numeric value" what name)
        | l -> problem "%s: metric %s printed %d times" what name (List.length l))
      expected;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k expected) then
          problem "%s: unexpected metric %s" what k)
      kv
  in
  let check_output ~what ~expected ~want_failed = function
    | Error e -> problem "%s: %s" what e
    | Ok j -> (
      let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
      if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
        problem "%s: result keys are %s" what (String.concat "," keys);
      let int key =
        match Json.member key j with Some (Json.Int i) -> i | _ -> -1
      in
      let attempted = int "attempted" and failed = int "failed" in
      if attempted < 1 then problem "%s: nothing attempted" what;
      if want_failed then begin
        if failed < 1 then
          problem "%s: a wrong expected answer went unnoticed" what
      end
      else if failed <> 0 || Json.member "correct" j <> Some (Json.Bool true)
      then problem "%s: fail_ratio is %d/%d" what failed attempted;
      match Json.member "metrics" j with
      | Some (Json.Obj kv) -> check_metrics what expected kv
      | _ -> problem "%s: no metrics object" what)
  in
  let end_to_end = metrics "end_to_end" and per_layer = metrics "per_layer" in
  List.iter
    (fun w ->
      let run extra =
        run_child
          ([ "--workload"; w; "--seed"; "7"; "--seconds"; "1"; "--size"; "tiny" ]
          @ extra)
      in
      check_output ~what:(w ^ " untraced") ~expected:end_to_end
        ~want_failed:false (run [ "--trace"; "0" ]);
      check_output ~what:(w ^ " traced") ~expected:per_layer ~want_failed:false
        (run [ "--trace"; "1" ]);
      check_output ~what:(w ^ " wrong answer") ~expected:end_to_end
        ~want_failed:true
        (run [ "--trace"; "0"; "--wrong-answer" ]))
    names;
  match List.rev !problems with
  | [] -> print_endline "perfbench self-test: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("perfbench self-test: " ^ p)) ps;
    exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and size = ref "full" and wrong = ref false in
  let selftest = ref "" and setup_only = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat "|" workload_names );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed phase measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--size", Arg.Set_string size, "full|tiny instance sizes");
      ("--wrong-answer", Arg.Set wrong, " expect a wrong answer (self-test)");
      ("--setup-only", Arg.Set setup_only, " set up, run the guard, exit");
      ( "--self-test",
        Arg.Set_string selftest,
        "BENCHMARK.json run every workload at tiny size" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest <> "" then self_test !selftest
  else begin
    if !workload = "" then die "--workload is required";
    if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
    if !seconds <= 0. then die "--seconds must be positive";
    let size =
      match !size with
      | "full" -> Workloads.Full
      | "tiny" -> Workloads.Tiny
      | s -> die "unknown --size %S" s
    in
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~size ~wrong:!wrong ~setup_only:!setup_only
  end
