(* The four workloads.  Each one builds its inputs from public
   constructors, checks every output against a known answer, and (in a
   traced run) times the public functions of the layers it exercises on
   states sampled from its own schedule tree.  README.md says why each
   workload exists and which layers it is meant to move. *)

open Util
module Engine = Runtime.Engine
module Machine = Runtime.Engine.Machine
module View = Runtime.Engine.Config_view
module Explore = Runtime.Explore
module Fuzz = Runtime.Fuzz
module Repro = Runtime.Repro
module Fingerprint = Runtime.Fingerprint
module Election = Protocols.Election
module Lint = Lepower_check.Lint
module Report = Lepower_check.Report
module Finding = Lepower_check.Finding
module Arena = Memory.Store.Arena

type size = Full | Tiny

type ctx = {
  size : size;
  seed : int;
  wrong : bool;
      (** expect a deliberately wrong answer (self-test of the checks) *)
  traced : bool;  (** a traced run (--trace 1) *)
  probe_budget : float;  (** seconds per probe loop in a traced run *)
}

type t = {
  seeded : bool;  (** whether the timed work depends on [ctx.seed] *)
  setup : unit -> unit;
      (** Build the inputs from public constructors (re-runnable). *)
  guard : tally -> unit;
      (** Untimed known-answer checks run once before timing. *)
  pass : spans -> tally -> unit;
      (** One timed pass, from its first call to its last verdict. *)
  layers : spans -> verdict_s:float -> (string * float) list;
      (** Traced run only: per-layer metrics of this workload's layers,
          including [trace.coverage]; [verdict_s] is the untraced median
          pass time measured in the same process. *)
}

(* The CLI's [lepower explore] default step bound. *)
let explore_max_steps = 50
let pct = Fuzz.Pct { depth = 3 }
let cas ~k ~n = Protocols.Cas_election.instance ~k ~n
let once r = match !r with Some v -> v | None -> invalid_arg "setup not run"

(* --- sampling states along a workload's schedule tree ----------------- *)

(* A machine after [moves] random moves from the instance's initial
   configuration (a move is a step, or one time in four a crash, as in a
   [crash_faults] walk), stopping early at a terminal. *)
let sample_machine rng ~moves config =
  let m = Machine.of_config config in
  let rec go left =
    if left > 0 then
      match Machine.enabled m with
      | [] -> ()
      | pids ->
        let pid = List.nth pids (Random.State.int rng (List.length pids)) in
        if Random.State.int rng 4 = 0 then Machine.crash m pid
        else Machine.step m pid;
        go (left - 1)
  in
  go moves;
  m

let running_samples rng ~n config count =
  let rec collect acc tries =
    if List.length acc >= count || tries > 50 * count then Array.of_list acc
    else
      let m =
        sample_machine rng ~moves:(Random.State.int rng (max 1 (n - 1))) config
      in
      match Machine.enabled m with
      | [] -> collect acc (tries + 1)
      | pids -> collect ((m, Array.of_list pids) :: acc) (tries + 1)
  in
  collect [] 0

let terminal_samples rng ~n config count =
  Array.init count (fun _ -> sample_machine rng ~moves:(4 * (n + 1)) config)

(* Persistent terminal configurations under seeded random schedules. *)
let terminal_configs ~seed config count =
  Array.init count (fun i ->
      (Engine.run ~sched:(Runtime.Sched.random ~seed:(seed + i)) config)
        .Engine.final)

(* Every (machine, pid) pair of the samples, flattened for probe loops. *)
let moves_of samples =
  Array.concat
    (Array.to_list
       (Array.map (fun (m, pids) -> Array.map (fun p -> (m, p)) pids) samples))

(* (pre-store, pid, loc, op) of steps sampled on the persistent engine. *)
let store_ops ~seed config count =
  let rng = Random.State.make [| seed; 17 |] in
  Array.init count (fun _ ->
      let rec walk c depth =
        match Engine.enabled c with
        | [] -> walk config 0
        | pids ->
          let pid = List.nth pids (Random.State.int rng (List.length pids)) in
          let c' = Engine.step c pid in
          if depth > 0 && Random.State.int rng 3 > 0 then walk c' (depth - 1)
          else
            match c'.Engine.trace with
            | ev :: _ -> (c, pid, ev)
            | [] -> walk config 0
      in
      walk config (Random.State.int rng 4))

let engine_step_ns ~budget ops =
  per_call_ns ~budget (fun i ->
      let c, pid, _ = ops.(i mod Array.length ops) in
      ignore (Engine.step c pid))

let store_apply_ns ~budget ops =
  per_call_ns ~budget (fun i ->
      let (c : Engine.config), pid, (ev : Runtime.Trace.event) =
        ops.(i mod Array.length ops)
      in
      ignore (Memory.Store.apply c.Engine.store ~pid ev.loc ev.op))

(* One incremental fingerprint update per event of the configurations'
   traces: extend the mover's history (hash-consed), hash the changed
   binding, fold the sums. *)
let extend_ns ~budget configs =
  let hc = Fingerprint.hcons_create 1024 in
  let events =
    Array.of_list (List.concat_map Engine.trace (Array.to_list configs))
  in
  per_call_ns ~budget (fun i ->
      let (ev : Runtime.Trace.event) = events.(i mod Array.length events) in
      let h =
        Fingerprint.history_extend_hc hc Fingerprint.history_empty ~loc:ev.loc
          ~op:ev.op ~result:ev.result
      in
      let b = Fingerprint.store_binding_hash ev.loc ev.result in
      ignore
        (Fingerprint.combine ~store_sum:b ~proc_sum:(Fingerprint.history_hash h)))

(* --- check-naive and check-reduced ------------------------------------ *)

type check_counts = {
  stats : Explore.stats;
  reports : Runtime.Program.Compiled.report array;
  minor_words : float;
  wall : float;
}

let check ~reduced ctx =
  let k, n =
    match (ctx.size, reduced) with
    | Full, false -> (8, 7)
    | Full, true -> (12, 11)
    | Tiny, _ -> (5, 4)
  in
  let inst = ref None in
  let reports = ref [||] in
  let options =
    {
      Explore.Options.default with
      crash_faults = true;
      dedup = reduced;
      por = reduced;
      backend = Engine.Arena;
      on_lowering = Some (fun r -> reports := r);
    }
  in
  let traced = ref None in
  let first_heap = ref None in
  let setup () = inst := Some (cas ~k ~n) in
  let guard tally =
    if reduced then
      op tally "decision-set guard" (fun () ->
          (* On a small instance the reduced walk must reach exactly the
             naive walk's decision sets under the same options. *)
          let g =
            match ctx.size with Full -> cas ~k:6 ~n:5 | Tiny -> cas ~k:4 ~n:3
          in
          let config = Election.config g in
          let max_steps = explore_max_steps in
          let naive =
            Explore.decision_sets
              ~options:
                { Explore.Options.default with crash_faults = true; max_steps }
              config
          in
          let red =
            Explore.decision_sets ~options:{ options with max_steps } config
          in
          if naive = red && naive <> [] then Ok ()
          else Error "reduced decision sets differ from the naive walk's")
  in
  let expected_configs, expected_terminals =
    match ctx.size with Full -> (1_063_623, 645_120) | Tiny -> (633, 384)
  in
  let pass sp tally =
    let inst = once inst in
    op tally "check" (fun () ->
        let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
        let mw0 = Gc.minor_words () in
        let result, wall =
          time (fun () ->
              with_span sp "check" (fun () ->
                  Election.explore_stats ~options inst
                    ~max_steps:explore_max_steps))
        in
        let minor_words = Gc.minor_words () -. mw0 in
        if !first_heap = None then
          first_heap :=
            Some ((Gc.quick_stat ()).Gc.top_heap_words - heap0);
        match result with
        | Error e -> Error ("verdict: " ^ e)
        | Ok (stats : Explore.stats) ->
          if sp.enabled then
            traced := Some { stats; reports = !reports; minor_words; wall };
          let* () =
            expect "truncated" ~expected:(if ctx.wrong then 1 else 0)
              stats.truncated
          in
          if reduced then Ok ()
          else
            let* () =
              expect "configurations" ~expected:expected_configs
                stats.configs_visited
            in
            expect "terminals" ~expected:expected_terminals stats.terminals)
  in
  let layers sp ~verdict_s =
    let probe name f = with_span sp ("probe." ^ name) f in
    let inst = once inst in
    let c =
      match !traced with Some c -> c | None -> invalid_arg "no traced pass"
    in
    let s = c.stats in
    let budget = ctx.probe_budget in
    let config = Election.config inst in
    let rng = Random.State.make [| ctx.seed; 1 |] in
    let samples = running_samples rng ~n config 64 in
    let moves = moves_of samples in
    let nth_move i = moves.(i mod Array.length moves) in
    let of_config_us =
      probe "of_config" (fun () ->
          per_call_ns ~budget (fun _ -> ignore (Machine.of_config config)))
      /. 1e3
    in
    (* [walk_naive] over subtrees rooted where at most five processes are
       still running, so one walk fits in a probe slice. *)
    let walk_ns =
      probe "walk_naive" @@ fun () ->
      let roots =
        Array.init 16 (fun _ ->
            let m = Machine.of_config config in
            let rec go d =
              match Machine.enabled m with
              | pids when List.length pids > 5 ->
                Machine.step m
                  (List.nth pids (Random.State.int rng (List.length pids)));
                go (d + 1)
              | _ -> d
            in
            let d = go 0 in
            (m, d))
      in
      let configs = ref 0 and secs = ref 0. and i = ref 0 in
      while !i < Array.length roots || !secs < 5. *. budget do
        let m, d = roots.(!i mod Array.length roots) in
        let ws =
          {
            Machine.w_configs = 0;
            w_terminals = 0;
            w_truncated = 0;
            w_max_depth = 0;
            w_choice_points = 0;
          }
        in
        let (), dt =
          time (fun () ->
              Machine.walk_naive ~crash_faults:true
                ~max_steps:explore_max_steps ~depth0:d ws m)
        in
        configs := !configs + ws.Machine.w_configs;
        secs := !secs +. dt;
        incr i
      done;
      !secs *. 1e9 /. float_of_int (max 1 !configs)
    in
    let step_undo_ns =
      probe "step_undo" @@ fun () ->
      per_call_ns ~budget (fun i ->
          let m, pid = nth_move i in
          let mk = Machine.mark m in
          Machine.step m pid;
          Machine.undo_to m mk)
    in
    let frame = Machine.frame () in
    let step_frame_ns =
      probe "step_frame" @@ fun () ->
      per_call_ns ~budget (fun i ->
          let m, pid = nth_move i in
          Machine.step_frame m pid frame;
          Machine.undo_frame m frame)
    in
    let terminals = terminal_samples rng ~n config 64 in
    (* Store ops the protocol performs, replayed on a fresh arena. *)
    let arena = Arena.of_store config.Engine.store in
    let arena_ops =
      Array.of_list
        (List.concat_map
           (fun m ->
             List.filter_map
               (fun (ev : Runtime.Trace.event) ->
                 Option.map
                   (fun id -> (ev.pid, id, ev.op))
                   (Arena.id_of_loc arena ev.loc))
               (Engine.trace (Machine.config m)))
           (Array.to_list terminals))
    in
    let apply_undo_ns =
      probe "arena_apply_undo" @@ fun () ->
      per_call_ns ~budget (fun i ->
          let pid, id, o = arena_ops.(i mod Array.length arena_ops) in
          let mk = Arena.mark arena in
          ignore (Arena.apply_id arena ~pid id o);
          Arena.undo_to arena mk)
    in
    let check_ns =
      probe "check_config" @@ fun () ->
      per_call_ns ~budget (fun i ->
          let m = terminals.(i mod Array.length terminals) in
          match Election.check_config inst (View.of_machine m) with
          | Ok () -> ()
          | Error e -> failwith ("check_config on a sampled terminal: " ^ e))
    in
    let trace_us =
      probe "view_trace" (fun () ->
          per_call_ns ~budget (fun i ->
              let m = terminals.(i mod Array.length terminals) in
              ignore (View.trace (View.of_machine m))))
      /. 1e3
    in
    let configs = float_of_int s.configs_visited in
    let nodes, bailed =
      Array.fold_left
        (fun (nodes, bailed) (r : Runtime.Program.Compiled.report) ->
          (nodes + r.nodes, if r.bailed then bailed + 1 else bailed))
        (0, 0) c.reports
    in
    let common =
      [
        ("compile.of_config_us", of_config_us);
        ("compile.nodes", float_of_int nodes);
        ("compile.bailed_pids", float_of_int bailed);
        ("machine.walk_ns_per_config", walk_ns);
        ("machine.step_undo_ns", step_undo_ns);
        ("machine.step_frame_ns", step_frame_ns);
        ("store_arena.apply_undo_ns", apply_undo_ns);
        ("gc.minor_words_per_config", c.minor_words /. configs);
        ("view.check_config_ns", check_ns);
        ("view.trace_us", trace_us);
        ("view.terminals", float_of_int s.terminals);
        ("explore.configs_per_s", configs /. c.wall);
        ("explore.configs_visited", configs);
        ("explore.choice_points", float_of_int s.choice_points);
      ]
    in
    let terminal_s = check_ns *. float_of_int s.terminals *. 1e-9 in
    if not reduced then
      let estimate =
        (of_config_us *. 1e-6) +. (walk_ns *. configs *. 1e-9) +. terminal_s
      in
      common @ [ ("trace.coverage", estimate /. verdict_s) ]
    else begin
      let finals = Array.map Machine.config terminals in
      let extend_ns =
        probe "fingerprint_extend" (fun () -> extend_ns ~budget finals)
      in
      let digest_us =
        probe "digest" (fun () ->
            per_call_ns ~budget (fun i ->
                ignore (Fingerprint.digest finals.(i mod Array.length finals))))
        /. 1e3
      in
      let snaps = Array.map (fun (m, _) -> (m, Machine.snapshot m)) samples in
      let snapshot_ns =
        probe "snapshot" @@ fun () ->
        per_call_ns ~budget (fun i ->
            ignore (Machine.snapshot (fst samples.(i mod Array.length samples))))
      in
      let probe_ns =
        probe "snapshot_equal" @@ fun () ->
        per_call_ns ~budget (fun i ->
            let m, snap = snaps.(i mod Array.length snaps) in
            if not (Machine.snapshot_equal m snap) then
              failwith "snapshot differs from its own machine")
      in
      let access_ns =
        probe "access_enc" @@ fun () ->
        per_call_ns ~budget (fun i ->
            let m, pid = nth_move i in
            ignore (Machine.access_enc m pid))
      in
      let heap_bytes =
        float_of_int (Option.value ~default:0 !first_heap * (Sys.word_size / 8))
      in
      let moves_made = configs +. float_of_int s.configs_deduped in
      let checks = float_of_int s.por_checks in
      let estimate =
        (of_config_us *. 1e-6)
        +. ((step_frame_ns +. extend_ns +. probe_ns) *. moves_made *. 1e-9)
        +. (snapshot_ns *. configs *. 1e-9)
        +. (access_ns *. 2. *. checks *. 1e-9)
        +. terminal_s
      in
      common
      @ [
          ("fingerprint.extend_ns", extend_ns);
          ("fingerprint.digest_us", digest_us);
          ("visited.snapshot_ns", snapshot_ns);
          ("visited.probe_ns", probe_ns);
          ("visited.bytes_per_config", heap_bytes /. configs);
          ( "visited.dedup_ratio",
            ratio (float_of_int s.configs_deduped) moves_made );
          ("por.access_enc_ns", access_ns);
          ("por.checks", checks);
          ("por.pruned", float_of_int s.por_pruned);
          ("por.prune_ratio", ratio (float_of_int s.por_pruned) checks);
          ("por.fast_hit_ratio", ratio (float_of_int s.por_fast_hits) checks);
          ("trace.coverage", estimate /. verdict_s);
        ]
    end
  in
  { seeded = false; setup; guard; pass; layers }

(* --- lint-exhaustive ---------------------------------------------------- *)

type lint_inputs = { l_inst : Election.instance; l_fixture : Lint.target }

type lint_subject = {
  stats : Explore.stats;
  walk_s : float;
  trace_us : float;
  analyze_us : float;
  sched : float;
}

let lint ctx =
  let k, n, fixture_n =
    match ctx.size with Full -> (9, 8, 7) | Tiny -> (5, 4, 4)
  in
  let rec fact i = if i <= 1 then 1 else i * fact (i - 1) in
  let inputs = ref None in
  let setup () =
    inputs :=
      Some
        {
          l_inst = cas ~k ~n;
          l_fixture = Lint.broken_cas_fixture ~n:fixture_n ();
        }
  in
  let reports = ref [] in
  let lint_walls = ref [] in
  let schedules (r : Report.t) =
    match r.stats with
    | Some s when s.exhaustive -> s.schedules
    | Some _ | None -> -1
  in
  let reportable (r : Report.t) = List.filter Finding.is_reportable r.findings in
  let pass sp tally =
    let i = once inputs in
    let run name expected_schedules judge f =
      op tally name (fun () ->
          let r, wall = time (fun () -> with_span sp "lint" f) in
          if sp.enabled then begin
            reports := r :: !reports;
            lint_walls := wall :: !lint_walls
          end;
          let* () =
            expect (name ^ " schedules") ~expected:expected_schedules
              (schedules r)
          in
          judge r)
    in
    if sp.enabled then begin
      reports := [];
      lint_walls := []
    end;
    run "lint election"
      (fact n + if ctx.wrong then 1 else 0)
      (fun r ->
        match reportable r with
        | [] -> Ok ()
        | f :: _ -> Error ("unexpected finding " ^ f.Finding.rule))
      (fun () -> Lint.lint_instance ~mode:Lint.Exhaustive i.l_inst);
    run "lint fixture" (fact fixture_n)
      (fun r ->
        if
          List.exists
            (fun (f : Finding.t) ->
              f.rule = "bounded-value" && f.severity = Finding.Error)
            r.findings
        then Ok ()
        else Error "no bounded-value error on the broken cas(3) fixture")
      (fun () -> Lint.lint ~mode:Lint.Exhaustive i.l_fixture)
  in
  let layers sp ~verdict_s =
    let i = once inputs in
    let budget = ctx.probe_budget in
    let subjects =
      [
        (Lint.target_of_instance i.l_inst, List.nth (List.rev !reports) 0);
        (i.l_fixture, List.nth (List.rev !reports) 1);
      ]
    in
    (* Per subject: its own walk size (the plain persistent explorer the
       lint drives), and the per-schedule costs of trace materialization
       and of the two analyzers on its terminal traces. *)
    let per_subject =
      List.mapi
        (fun j ((t : Lint.target), r) ->
          let store = Memory.Store.create t.bindings in
          let config = Engine.init store t.programs in
          let stats, walk_s =
            time (fun () ->
                with_span sp "probe.explore" (fun () ->
                    Explore.explore
                      ~options:
                        {
                          Explore.Options.default with
                          max_steps = (t.budget * List.length t.programs * 2) + 8;
                        }
                      config))
          in
          let finals = terminal_configs ~seed:(ctx.seed + (1000 * j)) config 64 in
          let trace_us =
            with_span sp "probe.view_trace" (fun () ->
                per_call_ns ~budget (fun x ->
                    ignore (View.trace (View.of_config finals.(x mod 64)))))
            /. 1e3
          in
          let traces = Array.map Engine.trace finals in
          let analyze_us =
            with_span sp "probe.analyze" (fun () ->
                per_call_ns ~budget (fun x ->
                    let trace = traces.(x mod 64) in
                    ignore
                      (Lepower_check.Bounded_check.check ~bounds:t.bounds ~store
                         trace);
                    ignore
                      (Lepower_check.Trace_check.check
                         ~single_writer:t.single_writer ~store trace)))
            /. 1e3
          in
          let sched = float_of_int (schedules r) in
          { stats; walk_s; trace_us; analyze_us; sched })
        subjects
    in
    let sum f = List.fold_left (fun a x -> a +. f x) 0. per_subject in
    let total_sched = sum (fun x -> x.sched) in
    let weighted f = sum (fun x -> f x *. x.sched) /. total_sched in
    let ops = store_ops ~seed:ctx.seed (Election.config i.l_inst) 64 in
    let step_ns =
      with_span sp "probe.engine_step" (fun () -> engine_step_ns ~budget ops)
    in
    let apply_ns =
      with_span sp "probe.store_apply" (fun () -> store_apply_ns ~budget ops)
    in
    let election_finals =
      terminal_configs ~seed:ctx.seed (Election.config i.l_inst) 64
    in
    let check_ns =
      with_span sp "probe.check_config" (fun () ->
          per_call_ns ~budget (fun x ->
              let c = election_finals.(x mod 64) in
              match Election.check_config i.l_inst (View.of_config c) with
              | Ok () -> ()
              | Error e -> failwith ("check_config on a sampled terminal: " ^ e)))
    in
    let configs = sum (fun x -> float_of_int x.stats.configs_visited) in
    let estimate =
      sum (fun x ->
          (float_of_int (x.stats.configs_visited - 1) *. step_ns *. 1e-9)
          +. (x.sched *. (x.trace_us +. x.analyze_us) *. 1e-6))
    in
    [
      ("engine.step_ns", step_ns);
      ("store.apply_ns", apply_ns);
      ("view.check_config_ns", check_ns);
      ("view.trace_us", weighted (fun x -> x.trace_us));
      ("view.terminals", total_sched);
      ("explore.configs_per_s", configs /. sum (fun x -> x.walk_s));
      ("explore.configs_visited", configs);
      ( "explore.choice_points",
        sum (fun x -> float_of_int x.stats.choice_points) );
      ("lint.analyze_us", weighted (fun x -> x.analyze_us));
      ( "lint.schedules_per_s",
        total_sched /. List.fold_left ( +. ) 0. !lint_walls );
      ( "lint.findings",
        float_of_int
          (List.fold_left
             (fun a r -> a + List.length (reportable r))
             0 !reports) );
      ("trace.coverage", estimate /. verdict_s);
    ]
  in
  { seeded = false; setup; guard = (fun _ -> ()); pass; layers }

(* --- fuzz-repro ----------------------------------------------------------- *)

type fuzz_inputs = {
  f_inst : Election.instance;
  f_fixture : Lint.target;
  f_subject : Lepower_check.Repro_subject.resolved;
  f_campaign_seed : int;
  f_hunt_seeds : int array;
}

(* A campaign progress callback that closes one [fuzz.run] span per
   completed run; call it right before the campaign starts. *)
let run_spans sp =
  if not sp.enabled then None
  else
    let last = ref (now ()) in
    Some
      (fun (_ : Fuzz.progress) ->
        let t = now () in
        add_span sp "fuzz.run" ~start_s:!last ~end_s:t;
        last := t)

type hunt = {
  h_runs : int;
  h_stats : Repro.shrink_stats;
  h_shrink_s : float;
  h_replay_s : float;
}

let fuzz ctx =
  let k, n, fixture_n, runs, hunts =
    match ctx.size with
    | Full -> (12, 11, 24, 10_000, 40)
    | Tiny -> (5, 4, 6, 200, 8)
  in
  (* A hunt that needs more runs than this counts as failed. *)
  let hunt_budget = 256 in
  let inputs = ref None in
  let setup () =
    (* Campaign and hunt seeds derive from the run's --seed. *)
    let rng = Random.State.make [| ctx.seed; 0x5eed |] in
    let fixture = Lint.broken_cas_fixture ~n:fixture_n ~flip:true () in
    inputs :=
      Some
        {
          f_inst = cas ~k ~n;
          f_fixture = fixture;
          f_subject = Lepower_check.Repro_subject.of_target fixture;
          f_campaign_seed = Random.State.bits rng;
          f_hunt_seeds = Array.init hunts (fun _ -> Random.State.bits rng);
        }
  in
  (* Walls of the untraced passes of a traced run, for its per-layer
     metrics.  An untraced run keeps none, so that its heap does not grow
     with the number of passes it fits in --seconds. *)
  let campaign_walls = ref [] in
  let hunt_walls = ref [] in
  let traced_campaign = ref None in
  let traced_hunts = ref [] in
  let is_bounded_value m =
    String.length m >= 13 && String.sub m 0 13 = "bounded-value"
  in
  (* One hunt: fuzz the fixture until it fails, shrink the certificate,
     replay the minimal one and judge its final state again. *)
  let hunt sp i seed =
    let t0 = now () in
    with_span sp "hunt" @@ fun () ->
    let o =
      with_span sp "fuzz.campaign" (fun () ->
          Lint.fuzz_target ~runs:hunt_budget ~seed ~kind:pct ~shrink:false
            ?progress:(run_spans sp) i.f_fixture)
    in
    match (o.Fuzz.cert, o.Fuzz.message) with
    | None, _ | _, None ->
      Error (Printf.sprintf "no violation within %d runs" hunt_budget)
    | Some _, Some m when not (is_bounded_value m) ->
      Error ("unexpected violation " ^ m)
    | Some cert, Some _ -> (
      let failing v = i.f_subject.failing v <> None in
      let (small, stats), shrink_s =
        time (fun () ->
            with_span sp "repro.shrink" (fun () ->
                Repro.shrink ~failing ~config0:i.f_subject.config cert))
      in
      let replayed, replay_s =
        time (fun () ->
            with_span sp "repro.replay" (fun () ->
                Repro.replay small i.f_subject.config))
      in
      let wall = now () -. t0 in
      match replayed with
      | Error e -> Error ("minimal certificate does not replay: " ^ e)
      | Ok final ->
        let* () =
          expect "shrunk decisions"
            ~expected:(if ctx.wrong then 2 else 3)
            (List.length small.Repro.decisions)
        in
        let* () =
          match i.f_subject.failing (View.of_config final) with
          | Some m when is_bounded_value m -> Ok ()
          | Some m -> Error ("replayed certificate fails with " ^ m)
          | None -> Error "replayed certificate no longer fails"
        in
        if sp.enabled then
          traced_hunts :=
            {
              h_runs = o.Fuzz.runs;
              h_stats = stats;
              h_shrink_s = shrink_s;
              h_replay_s = replay_s;
            }
            :: !traced_hunts
        else if ctx.traced then hunt_walls := wall :: !hunt_walls;
        Ok ())
  in
  let pass sp tally =
    let i = once inputs in
    if sp.enabled then traced_hunts := [];
    op tally "clean campaign" (fun () ->
        let o, wall =
          time (fun () ->
              with_span sp "fuzz.campaign" (fun () ->
                  Election.fuzz ~runs ~seed:i.f_campaign_seed ~kind:pct
                    ?progress:(run_spans sp) i.f_inst))
        in
        if sp.enabled then traced_campaign := Some o
        else if ctx.traced then campaign_walls := wall :: !campaign_walls;
        match o.Fuzz.message with
        | Some m -> Error ("violation in a correct election: " ^ m)
        | None -> expect "campaign runs" ~expected:runs o.Fuzz.runs);
    Array.iter
      (fun seed -> op tally "hunt" (fun () -> hunt sp i seed))
      i.f_hunt_seeds
  in
  let layers sp ~verdict_s =
    let i = once inputs in
    let budget = ctx.probe_budget in
    let o =
      match !traced_campaign with
      | Some c -> c
      | None -> invalid_arg "no traced pass"
    in
    let hs = !traced_hunts in
    let nh = float_of_int (max 1 (List.length hs)) in
    let mean f = List.fold_left (fun a h -> a +. f h) 0. hs /. nh in
    let clean = Election.config i.f_inst in
    let clean_steps = (i.f_inst.step_bound * i.f_inst.n * 2) + 1000 in
    let fixture = i.f_subject.config in
    let fixture_steps =
      (i.f_fixture.budget * List.length i.f_fixture.programs * 2) + 1000
    in
    let run_us config max_steps base =
      per_call_ns ~budget (fun j ->
          ignore (Fuzz.run ~max_steps ~kind:pct ~seed:(base + j) config))
      /. 1e3
    in
    let clean_run_us =
      with_span sp "probe.fuzz_run_clean" (fun () ->
          run_us clean clean_steps i.f_campaign_seed)
    in
    let fixture_run_us =
      with_span sp "probe.fuzz_run_fixture" (fun () ->
          run_us fixture fixture_steps i.f_hunt_seeds.(0))
    in
    let choose_ns =
      with_span sp "probe.pct_choose" (fun () ->
          let enabled = List.init i.f_inst.n Fun.id in
          let pct seed = Runtime.Sched.pct ~seed ~max_steps:clean_steps () in
          let s = ref (pct ctx.seed) in
          per_call_ns ~budget (fun j ->
              let time = j mod clean_steps in
              if time = 0 then
                s := pct (ctx.seed + j);
              let pid = !s.choose ~time ~enabled in
              !s.observe ~time ~pid))
    in
    let ops = store_ops ~seed:ctx.seed clean 64 in
    let step_ns =
      with_span sp "probe.engine_step" (fun () -> engine_step_ns ~budget ops)
    in
    let apply_ns =
      with_span sp "probe.store_apply" (fun () -> store_apply_ns ~budget ops)
    in
    let finals = terminal_configs ~seed:ctx.seed fixture 16 in
    let digest_us =
      with_span sp "probe.digest" (fun () ->
          per_call_ns ~budget (fun j ->
              ignore (Fingerprint.digest finals.(j mod 16))))
      /. 1e3
    in
    let extend_ns =
      with_span sp "probe.fingerprint_extend" (fun () ->
          extend_ns ~budget finals)
    in
    let shrink_s = mean (fun h -> h.h_shrink_s) in
    let replay_s = mean (fun h -> h.h_replay_s) in
    let runs_to_violation = mean (fun h -> float_of_int h.h_runs) in
    let estimate =
      (float_of_int o.Fuzz.runs *. clean_run_us *. 1e-6)
      +. nh
         *. ((runs_to_violation *. fixture_run_us *. 1e-6)
            +. shrink_s +. replay_s)
    in
    [
      ("engine.step_ns", step_ns);
      ("store.apply_ns", apply_ns);
      ("fingerprint.extend_ns", extend_ns);
      ("fingerprint.digest_us", digest_us);
      ("fuzz.run_us", clean_run_us);
      ("sched.pct_choose_ns", choose_ns);
      ( "fuzz.steps_per_run",
        float_of_int o.Fuzz.steps /. float_of_int (max 1 o.Fuzz.runs) );
      ( "fuzz_runs_per_s",
        float_of_int runs /. median !campaign_walls );
      ("repro_p50_s", quantile 0.5 !hunt_walls);
      ("repro_p90_s", quantile 0.9 !hunt_walls);
      ("repro.hunts", float_of_int (List.length !hunt_walls));
      ("repro.shrink_ms", shrink_s *. 1e3);
      ( "repro.replays_per_shrink",
        mean (fun h -> float_of_int h.h_stats.attempts) );
      ( "repro.shrink_ratio",
        mean (fun h ->
            float_of_int h.h_stats.original
            /. float_of_int (max 1 h.h_stats.shrunk)) );
      ("repro.replay_us", replay_s *. 1e6);
      ("repro.runs_to_violation", runs_to_violation);
      ("trace.coverage", estimate /. verdict_s);
    ]
  in
  { seeded = true; setup; guard = (fun _ -> ()); pass; layers }

let all =
  [
    ("check-naive", check ~reduced:false);
    ("check-reduced", check ~reduced:true);
    ("lint-exhaustive", lint);
    ("fuzz-repro", fuzz);
  ]
