(* Cross-backend equivalence: the mutable arena store against the
   persistent reference, and the compiled machine against the closure
   engine.  The arena/machine pair is the hot path of every exhaustive
   check, so these tests pin the contract the speedup rests on:
   state-for-state store agreement through random op sequences
   (snapshot/undo included), the frame primitives the arena walkers use
   in lockstep with the persistent engine over every schedule, each
   frame's step delta against the persistent engine's step, and
   identical exploration statistics and decision sets in every mode. *)

module Value = Memory.Value
module Spec = Memory.Spec
module Store = Memory.Store
module Arena = Memory.Store.Arena
module Engine = Runtime.Engine
module Machine = Runtime.Engine.Machine
module Explore = Runtime.Explore
module Fingerprint = Runtime.Fingerprint
module Proc = Runtime.Proc
module View = Runtime.Engine.Config_view

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let status : Runtime.Proc.status Alcotest.testable =
  Alcotest.testable Runtime.Proc.pp_status (fun a b ->
      match (a, b) with
      | Runtime.Proc.Decided x, Runtime.Proc.Decided y -> Value.equal x y
      | a, b -> a = b)

(* --- random op sequences: arena tracks the persistent store --- *)

(* A deterministic psuedo-random stream (splitmix-ish) so the sequence
   is reproducible from the seed alone. *)
let mk_rng seed =
  let state = ref (seed * 2654435769 + 1) in
  fun bound ->
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound

let zoo_bindings () =
  let open Objects.Zoo in
  [ rw_register; test_and_set; swap; cas 4; sticky_bit; fetch_add_mod 5 ]
  |> List.map (fun e -> (e.name, e.spec, Array.of_list e.ops))

let check_agree ~msg store arena =
  (* Every observation the rest of the system makes must agree. *)
  List.iter
    (fun (loc, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "%s: peek %s" msg loc)
        (Some v) (Arena.peek arena loc))
    (Store.state_bindings store);
  Alcotest.(check bool)
    (Printf.sprintf "%s: state_bindings" msg)
    true
    (Store.state_bindings store = Arena.state_bindings arena);
  Alcotest.(check int)
    (Printf.sprintf "%s: compare_states" msg)
    0
    (Store.compare_states store (Arena.to_store arena))

let test_random_ops () =
  let bindings = zoo_bindings () in
  let store0 =
    Store.create (List.map (fun (name, spec, _) -> (name, spec)) bindings)
  in
  let locs = Array.of_list (List.map (fun (name, _, _) -> name) bindings) in
  let ops = Array.of_list (List.map (fun (_, _, ops) -> ops) bindings) in
  let n_locs = Array.length locs in
  List.iter
    (fun seed ->
      let rng = mk_rng seed in
      let arena = Arena.of_store store0 in
      let store = ref store0 in
      (* a stack of (persistent snapshot, arena mark) checkpoints *)
      let saves = ref [] in
      for i = 0 to 399 do
        let li = rng n_locs in
        let loc = locs.(li) in
        let msg = Printf.sprintf "seed %d op %d" seed i in
        (match rng 8 with
        | 0 -> saves := (!store, Arena.mark arena) :: !saves
        | 1 -> (
          match !saves with
          | [] -> ()
          | (s, mk) :: rest ->
            saves := rest;
            store := s;
            Arena.undo_to arena mk)
        | _ -> (
          let pid = rng 4 in
          let op = ops.(li).(rng (Array.length ops.(li))) in
          match (Store.apply !store ~pid loc op, Arena.apply arena ~pid loc op)
          with
          | Ok (store', rp), Ok ra ->
            store := store';
            Alcotest.check value (msg ^ ": result") rp ra
          | Error ep, Error ea ->
            Alcotest.(check string) (msg ^ ": error") ep ea
          | Ok _, Error e ->
            Alcotest.failf "%s: persistent Ok but arena Error %s" msg e
          | Error e, Ok _ ->
            Alcotest.failf "%s: persistent Error %s but arena Ok" msg e));
        check_agree ~msg !store arena
      done)
    [ 1; 7; 42; 1994 ]

(* --- frame deltas against the persistent engine's step --- *)

let cas_instance = Protocols.Cas_election.instance ~k:4 ~n:3

(* [f] holds the machine's step of [pid] from the configuration [pc],
   and [pc'] is the persistent engine's step of [pid] from [pc].  The
   frame reports a store operation exactly when the persistent step
   appended an event, and then the event's location (by name and by
   arena slot), operation and result, and the location's state before
   and after the step, all as the persistent step has them. *)
let check_delta ~msg m f pc pc' =
  let event =
    match pc'.Engine.trace with
    | e :: _ when pc'.Engine.trace != pc.Engine.trace -> Some e
    | _ -> None
  in
  Alcotest.(check bool)
    (msg ^ ": a store operation")
    (Option.is_some event)
    (Machine.frame_step_event m f);
  match event with
  | None -> ()
  | Some e ->
    let loc = e.Runtime.Trace.loc in
    let state c = Store.peek c.Engine.store loc in
    Alcotest.(check string) (msg ^ ": frame_loc") loc (Machine.frame_loc m f);
    Alcotest.(check string)
      (msg ^ ": frame_loc_id")
      loc
      (fst (List.nth (Machine.state_bindings m) (Machine.frame_loc_id m f)));
    Alcotest.check value (msg ^ ": frame_op") e.Runtime.Trace.op
      (Machine.frame_op m f);
    Alcotest.check value (msg ^ ": frame_result") e.Runtime.Trace.result
      (Machine.frame_result m f);
    Alcotest.(check (option value))
      (msg ^ ": frame_old_state")
      (state pc)
      (Some (Machine.frame_old_state m f));
    Alcotest.(check (option value))
      (msg ^ ": frame_new_state")
      (state pc')
      (Some (Machine.frame_new_state m f))

(* Each frame step along random schedules reports the persistent
   engine's step delta — through ordinary steps, decides and crashes —
   with the machine staying in lockstep with the persistent engine, on
   one location (cas) and on several (perm, whose steps move between
   its slots).  One machine per instance serves every seed: each walk
   is undone frame by frame back to the root, so later seeds run on
   warm transition memos and exercise the memo-hit fast path as well
   as the journaled slow path. *)
let test_step_deltas () =
  List.iter
    (fun (name, config0) ->
      let n = Array.length config0.Engine.procs in
      let m = Machine.of_config config0 in
      let root_bindings = Machine.state_bindings m in
      List.iter
        (fun seed ->
          let msg what = Printf.sprintf "%s seed %d: %s" name seed what in
          let pc = ref config0 in
          (* undo stack, newest first: [`Step frame] or [`Crash pid] *)
          let moves = ref [] in
          let rng = mk_rng seed in
          for i = 0 to 299 do
            match Machine.enabled m with
            | [] -> ()
            | en ->
              let pid = List.nth en (rng (List.length en)) in
              if rng 12 = 0 then begin
                Machine.crash_frame m pid;
                pc := Engine.crash !pc pid;
                moves := `Crash pid :: !moves
              end
              else begin
                let f = Machine.frame () in
                Machine.step_frame m pid f;
                let pc' = Engine.step !pc pid in
                check_delta ~msg:(msg (Printf.sprintf "move %d" i)) m f !pc pc';
                pc := pc';
                moves := `Step f :: !moves
              end;
              Alcotest.check status
                (msg (Printf.sprintf "move %d: status of p%d" i pid))
                !pc.Engine.procs.(pid).Proc.status
                (Machine.status m pid)
          done;
          Alcotest.(check bool)
            (msg "final store lockstep")
            true
            (Machine.state_bindings m = Store.state_bindings !pc.Engine.store);
          List.iter
            (function
              | `Step f -> Machine.undo_frame m f
              | `Crash pid -> Machine.uncrash_frame m pid)
            !moves;
          Alcotest.(check bool)
            (msg "undone to the root")
            true
            (Machine.state_bindings m = root_bindings
            && Machine.enabled m = List.init n Fun.id
            && Machine.time m = config0.Engine.time))
        [ 13; 99; 4096; 13 ])
    [
      ("cas k=4 n=3", Protocols.Election.config cas_instance);
      ( "perm k=3 n=2",
        Protocols.Election.config
          (Protocols.Permutation_election.instance ~k:3 ~n:2) );
    ]

(* --- lockstep: the frame primitives against the persistent engine --- *)

(* Walk every schedule of [config0] (with a crash move beside each step
   when [crash_faults]), driving one machine through the journal-free
   primitives the arena walkers are built from —
   [step_frame]/[undo_frame], [crash_frame]/[uncrash_frame] — in
   lockstep with the persistent engine.  Every step's frame delta must
   be the persistent step's ({!check_delta}).  On entering and again on
   leaving every node (after all its children were undone), the machine
   must agree with the persistent configuration on enabled set,
   statuses, step counts, decisions and store state, and the histories
   extended from the frame deltas through a consing table, as the
   reduced walk extends them, must equal the histories built
   independently from the persistent trace.  Returns the number of
   nodes walked. *)
let lockstep_walk ~name ~crash_faults config0 =
  let n = Array.length config0.Engine.procs in
  let m = Machine.of_config config0 in
  let hc = Fingerprint.hcons_create 64 in
  let hm = Array.make n Fingerprint.history_empty in
  let nodes = ref 0 in
  let msg what = Printf.sprintf "%s node %d: %s" name !nodes what in
  let check pc hp =
    let vm = View.of_machine m and vp = View.of_config pc in
    Alcotest.(check (list int))
      (msg "enabled") (Engine.enabled pc) (Machine.enabled m);
    for pid = 0 to n - 1 do
      Alcotest.check status
        (msg (Printf.sprintf "status of p%d" pid))
        (View.status vp pid) (View.status vm pid);
      Alcotest.(check int)
        (msg (Printf.sprintf "steps of p%d" pid))
        (View.steps vp pid) (View.steps vm pid);
      Alcotest.(check bool)
        (msg (Printf.sprintf "history of p%d" pid))
        true
        (Fingerprint.history_equal hp.(pid) hm.(pid))
    done;
    Alcotest.(check (list (pair int value)))
      (msg "decisions") (View.decisions vp) (View.decisions vm);
    Alcotest.(check (list (pair string value)))
      (msg "state bindings") (View.state_bindings vp) (View.state_bindings vm)
  in
  let rec go pc hp =
    incr nodes;
    check pc hp;
    List.iter
      (fun pid ->
        let saved_hist = hm.(pid) in
        let f = Machine.frame () in
        Machine.step_frame m pid f;
        let pc' = Engine.step pc pid in
        check_delta ~msg:(msg (Printf.sprintf "step of p%d" pid)) m f pc pc';
        if Machine.frame_step_event m f then
          hm.(pid) <-
            Fingerprint.history_extend_hc hc saved_hist
              ~loc:(Machine.frame_loc m f) ~op:(Machine.frame_op m f)
              ~result:(Machine.frame_result m f);
        let hp' =
          match pc'.Engine.trace with
          | e :: _ when pc'.Engine.trace != pc.Engine.trace ->
            let h = Array.copy hp in
            h.(pid) <- Fingerprint.history_extend h.(pid) e;
            h
          | _ -> hp
        in
        go pc' hp';
        Machine.undo_frame m f;
        hm.(pid) <- saved_hist;
        if crash_faults then begin
          Machine.crash_frame m pid;
          go (Engine.crash pc pid) hp;
          Machine.uncrash_frame m pid
        end)
      (Engine.enabled pc);
    check pc hp
  in
  go config0 (Array.make n Fingerprint.history_empty);
  !nodes

let test_frame_lockstep () =
  let fixture = Lepower_check.Lint.broken_cas_fixture () in
  List.iter
    (fun (name, config) ->
      let nodes = lockstep_walk ~name ~crash_faults:true config in
      (* the walk covers exactly the space the naive explorer counts *)
      let stats =
        Explore.explore
          ~options:{ Explore.Options.default with crash_faults = true }
          config
      in
      Alcotest.(check int)
        (name ^ ": every configuration walked")
        stats.Explore.configs_visited nodes)
    [
      ("cas k=4 n=3", Protocols.Election.config cas_instance);
      ( "broken-cas",
        Engine.init
          (Store.create fixture.Lepower_check.Lint.bindings)
          fixture.Lepower_check.Lint.programs );
    ]

(* --- whole-space agreement across backends --- *)

let modes =
  [
    ("naive", false, false);
    ("dedup", true, false);
    ("por", false, true);
    ("dedup+por", true, true);
  ]

let opts ~dedup ~por backend =
  {
    Explore.Options.default with
    crash_faults = true;
    max_steps = 60;
    dedup;
    por;
    backend;
  }

(* Inputs the reduced arena walk's visited-table key must get right
   beyond cas k=4 n=3 on one domain: two domains requested, which a
   reduced run ignores — it takes one worker and must report exactly the
   one-domain run; several locations (perm k=3 n=2 has a cas register
   plus SWMR logs), so a key holds several state slots; and a [Faulty]
   status, so a key holds a fault-message payload.  The fault fixture
   runs three cas-election processes on [C] beside one whose cas names
   [D], which the store does not bind: its step ends
   [Faulty "unknown location \"D\""]. *)
let fault_fixture () =
  let rogue =
    Runtime.Program.complete
      Runtime.Program.(
        let* _ =
          Objects.Cas_k.cas "D" ~expected:Objects.Cas_k.bottom
            ~desired:(Value.int 3)
        in
        return Value.Unit)
  in
  Engine.init
    (Store.create cas_instance.Protocols.Election.bindings)
    (List.init 3 cas_instance.Protocols.Election.program @ [ rogue ])

let key_inputs () =
  let cas = Protocols.Election.config cas_instance in
  let perm =
    Protocols.Election.config
      (Protocols.Permutation_election.instance ~k:3 ~n:2)
  in
  let fault = fault_fixture () in
  [
    ("cas k=4 n=3 domains=2", cas, 2, false);
    ("perm k=3 n=2", perm, 1, false);
    ("fault fixture", fault, 1, true);
    ("fault fixture domains=2", fault, 2, true);
  ]

let reduced_modes = List.filter (fun (_, dedup, _) -> dedup) modes

(* (input, mode) -> (configs visited, deduped, POR pruned) of the
   one-domain inputs: the persistent reference walk's counts, which the
   arena walk must reproduce exactly.  The two-domain inputs are held to
   their one-domain run instead. *)
let key_pins =
  [
    (("perm k=3 n=2", "dedup"), (28_802, 22_793, 0));
    (("perm k=3 n=2", "dedup+por"), (29_715, 3_208, 22_324));
    (("fault fixture", "dedup"), (105, 146, 0));
    (("fault fixture", "dedup+por"), (105, 3, 143));
  ]

let test_explore_stats_agree () =
  List.iter
    (fun (mode, dedup, por) ->
      let stats backend =
        Protocols.Election.explore_stats cas_instance ~max_steps:60
          ~options:(opts ~dedup ~por backend)
      in
      let sp = stats Engine.Persistent and sa = stats Engine.Arena in
      (match sp with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: persistent verdict: %s" mode e);
      Alcotest.(check bool)
        (mode ^ ": stats identical across backends")
        true (sp = sa))
    modes;
  List.iter
    (fun (name, config, domains, faults) ->
      List.iter
        (fun (mode, dedup, por) ->
          let faulty = Atomic.make 0 in
          let stats ?(domains = domains) backend =
            Explore.explore
              ~options:
                {
                  (opts ~dedup ~por backend) with
                  domains;
                  on_terminal =
                    Some
                      (fun v ->
                        if View.faults v <> [] then Atomic.incr faulty);
                }
              config
          in
          let sp = stats Engine.Persistent in
          let faulty_p = Atomic.exchange faulty 0 in
          let sa = stats Engine.Arena in
          let msg what = Printf.sprintf "%s %s: %s" name mode what in
          Alcotest.(check bool)
            (msg "a terminal is faulty") faults (faulty_p > 0);
          Alcotest.(check int)
            (msg "faulty terminals identical across backends")
            faulty_p (Atomic.get faulty);
          Alcotest.(check bool)
            (msg "stats identical across backends")
            true (sp = sa);
          Alcotest.(check int) (msg "not truncated") 0 sp.Explore.truncated;
          Alcotest.(check int) (msg "one worker") 1 sa.Explore.domains_used;
          match List.assoc_opt (name, mode) key_pins with
          | Some pin ->
            Alcotest.(check (triple int int int))
              (msg "visited, deduped, pruned")
              pin
              ( sa.Explore.configs_visited,
                sa.Explore.configs_deduped,
                sa.Explore.por_pruned )
          | None ->
            List.iter
              (fun backend ->
                Alcotest.(check bool)
                  (msg
                     ("stats equal to the one-domain run on "
                     ^ Engine.backend_name backend))
                  true
                  (stats ~domains:1 backend = sa))
              [ Engine.Persistent; Engine.Arena ])
        reduced_modes)
    (key_inputs ())

let test_decision_sets_agree () =
  let config = Protocols.Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let sets backend =
        Explore.decision_sets ~options:(opts ~dedup ~por backend) config
      in
      Alcotest.(check bool)
        (mode ^ ": decision sets identical across backends")
        true
        (sets Engine.Persistent = sets Engine.Arena))
    modes;
  List.iter
    (fun (name, config, domains, _) ->
      List.iter
        (fun (mode, dedup, por) ->
          let sets backend =
            Explore.decision_sets
              ~options:{ (opts ~dedup ~por backend) with domains }
              config
          in
          let sp = sets Engine.Persistent in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: decision sets nonempty" name mode)
            true (sp <> []);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: decision sets identical across backends"
               name mode)
            true
            (sp = sets Engine.Arena))
        reduced_modes)
    (key_inputs ())

(* The reduced arena walk reports its visited-table size once per
   exploration: no more entries than configurations visited (a revisit
   re-explored under a smaller sleep set adds none), and at least one
   [W]-word key per entry, [W] = locations + processes. *)
let test_visited_gauges () =
  let module Metrics = Lepower_obs.Metrics in
  let was_on = Metrics.is_enabled () in
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_on then Metrics.disable ())
    (fun () ->
      List.iter
        (fun (name, config, domains, _) ->
          List.iter
            (fun (mode, dedup, por) ->
              Metrics.set (Metrics.gauge "explore.visited.entries") 0.;
              Metrics.set (Metrics.gauge "explore.visited.bytes") 0.;
              let stats =
                Explore.explore
                  ~options:{ (opts ~dedup ~por Engine.Arena) with domains }
                  config
              in
              let gauge g = Metrics.gauge_value (Metrics.gauge g) in
              let entries = gauge "explore.visited.entries"
              and bytes = gauge "explore.visited.bytes" in
              let w =
                List.length (Store.state_bindings config.Engine.store)
                + Array.length config.Engine.procs
              in
              let msg what = Printf.sprintf "%s %s: %s" name mode what in
              Alcotest.(check bool)
                (msg "0 < entries <= configs visited")
                true
                (entries > 0.
                && entries <= Float.of_int stats.Explore.configs_visited);
              Alcotest.(check bool)
                (msg "bytes >= 8 W entries")
                true
                (bytes >= 8. *. Float.of_int w *. entries))
            reduced_modes)
        (key_inputs ()))

(* --- the naive arena walk, with and without leaf hooks --- *)

(* Naive mode on both backends through each route a caller can take:
   [Explore.explore] with no hook (the machine walk gets none),
   [Explore.explore] with an [on_terminal] hook, and [check_all] (both
   hooks) — with and without crash faults, on one domain and on three,
   where the arena walk runs from every frontier item. *)
let test_naive_routes () =
  let instance = Protocols.Cas_election.instance ~k:5 ~n:4 in
  let config = Protocols.Election.config instance in
  let predicate = Protocols.Election.check_config instance in
  List.iter
    (fun (crash_faults, domains) ->
      let msg what =
        Printf.sprintf "crash_faults=%b domains=%d: %s" crash_faults domains
          what
      in
      let options backend =
        { (opts ~dedup:false ~por:false backend) with crash_faults; domains }
      in
      let routes backend =
        let calls = Atomic.make 0 in
        let plain = Explore.explore ~options:(options backend) config in
        let hooked =
          Explore.explore
            ~options:
              {
                (options backend) with
                on_terminal = Some (fun _ -> Atomic.incr calls);
              }
            config
        in
        match Explore.check_all ~options:(options backend) config predicate with
        | Ok checked -> (plain, hooked, checked, Atomic.get calls)
        | Error v -> Alcotest.failf "%s" (msg v.Explore.message)
      in
      let pp, ph, pc, pcalls = routes Engine.Persistent in
      let ap, ah, ac, acalls = routes Engine.Arena in
      Alcotest.(check bool) (msg "explore without a hook") true (pp = ap);
      Alcotest.(check bool) (msg "explore with on_terminal") true (ph = ah);
      Alcotest.(check bool) (msg "check_all") true (pc = ac);
      Alcotest.(check bool) (msg "the routes agree") true (ap = ah && ah = ac);
      Alcotest.(check int) (msg "hook calls") pcalls acalls;
      Alcotest.(check int)
        (msg "a hook call per terminal") ap.Explore.terminals acalls;
      Alcotest.(check bool)
        (msg "workers") true
        (if domains = 1 then ap.Explore.domains_used = 1
         else ap.Explore.domains_used > 1))
    [ (false, 1); (false, 3); (true, 1); (true, 3) ]

(* A deep fixture: process 1 re-reads a flag nobody sets (the lint spin
   fixture's loop), so a branch runs as deep as the step bound lets it,
   beside process 0, which decides at once wherever the schedule puts
   its one move.  Move paths mix the two pids, so a walk that lost
   recorded moves when its path grew would replay the wrong schedule. *)
let deep_config () =
  let spin = Lepower_check.Lint.spin_fixture () in
  Engine.init
    (Store.create spin.Lepower_check.Lint.bindings)
    (Runtime.Program.(complete (return Value.Unit))
    :: spin.Lepower_check.Lint.programs)

(* The call perfbench makes, [Machine.walk_naive] with no hooks, fills
   the same [walk_stats] as the walk with both leaf hooks, and both
   leave the machine in its pre-walk state.  At every leaf the hook's
   move path, replayed on the persistent engine, reaches the machine's
   live state — on the deep fixture past 64 moves, where the path
   first grows. *)
let test_walk_naive_hooks () =
  List.iter
    (fun (name, config, max_steps) ->
      let m = Machine.of_config config in
      let fresh () =
        {
          Machine.w_configs = 0;
          w_terminals = 0;
          w_truncated = 0;
          w_max_depth = 0;
          w_choice_points = 0;
        }
      in
      let pre_walk what =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s leaves the pre-walk state" name what)
          true
          (Engine.config_equal (Machine.config m) config)
      in
      let plain = fresh () and hooked = fresh () in
      Machine.walk_naive ~crash_faults:true ~max_steps ~depth0:0 plain m;
      pre_walk "the plain walk";
      let leaves = ref 0 and deepest = ref 0 in
      let hook path mc =
        incr leaves;
        deepest := max !deepest mc;
        let replayed = ref config in
        for i = 0 to mc - 1 do
          let mv = path.(i) in
          replayed :=
            if mv >= 0 then Engine.step !replayed mv
            else Engine.crash !replayed (-mv - 1)
        done;
        let vm = View.of_machine m and vp = View.of_config !replayed in
        for pid = 0 to Machine.n_procs m - 1 do
          Alcotest.check status
            (Printf.sprintf "%s leaf %d: status of p%d" name !leaves pid)
            (View.status vp pid) (View.status vm pid);
          Alcotest.(check int)
            (Printf.sprintf "%s leaf %d: steps of p%d" name !leaves pid)
            (View.steps vp pid) (View.steps vm pid)
        done;
        Alcotest.(check (list (pair string value)))
          (Printf.sprintf "%s leaf %d: store" name !leaves)
          (View.state_bindings vp) (View.state_bindings vm)
      in
      Machine.walk_naive ~on_terminal:hook ~on_truncated:hook
        ~crash_faults:true ~max_steps ~depth0:0 hooked m;
      pre_walk "the hooked walk";
      Alcotest.(check bool)
        (name ^ ": same walk_stats with and without hooks")
        true (plain = hooked);
      Alcotest.(check int)
        (name ^ ": a hook call per leaf")
        (plain.Machine.w_terminals + plain.Machine.w_truncated)
        !leaves;
      Alcotest.(check bool)
        (name ^ ": the walk went as deep as its moves")
        true
        (!deepest >= plain.Machine.w_max_depth))
    [
      ("cas k=4 n=3", Protocols.Election.config cas_instance, 60);
      ("deep", deep_config (), 80);
    ]

(* Step bounds nothing may be sized by: a negative bound, 0 and
   [max_int] on cas k=4 n=3 with crashes, and 80 on the deep fixture,
   whose walks must grow their move paths.  Arena gives exactly the
   persistent stats and [check_all] verdict, witness included, in naive
   and dedup+por modes. *)
let test_step_bounds () =
  let verdict = function
    | Ok stats -> Ok stats
    | Error (v : Explore.violation) ->
      Error
        ( v.Explore.message,
          v.Explore.decisions,
          Fmt.str "%a" Runtime.Trace.pp v.Explore.trace )
  in
  let no_fault view =
    if View.faults view = [] then Ok () else Error "a process faulted"
  in
  List.iter
    (fun (name, config, max_steps) ->
      List.iter
        (fun (mode, dedup, por) ->
          let options backend =
            { (opts ~dedup ~por backend) with max_steps }
          in
          let run backend =
            ( Explore.explore ~options:(options backend) config,
              verdict
                (Explore.check_all ~options:(options backend) config no_fault)
            )
          in
          let sp, vp = run Engine.Persistent and sa, va = run Engine.Arena in
          let msg what =
            Printf.sprintf "%s max_steps=%d %s: %s" name max_steps mode what
          in
          Alcotest.(check bool) (msg "stats") true (sp = sa);
          Alcotest.(check bool) (msg "check_all verdict") true (vp = va);
          Alcotest.(check bool)
            (msg "truncated iff the verdict fails")
            (sp.Explore.truncated > 0)
            (Result.is_error vp))
        [ ("naive", false, false); ("dedup+por", true, true) ])
    [
      ("cas k=4 n=3", Protocols.Election.config cas_instance, -10);
      ("cas k=4 n=3", Protocols.Election.config cas_instance, 0);
      ("cas k=4 n=3", Protocols.Election.config cas_instance, max_int);
      ("deep", deep_config (), 80);
    ]

(* Reduced arena runs whose sleep set outgrows one int (2n > 62) take
   the persistent walk; the stats must not notice.  No crash faults:
   with crashes the crash subsets alone make 2^32 states. *)
let test_oversized_route () =
  let config =
    Protocols.Election.config (Protocols.Cas_election.instance ~k:33 ~n:32)
  in
  let stats backend =
    Explore.explore
      ~options:
        {
          Explore.Options.default with
          max_steps = 3;
          dedup = true;
          por = true;
          backend;
        }
      config
  in
  let sp = stats Engine.Persistent in
  Alcotest.(check bool)
    "walk is nontrivial" true
    (sp.Explore.configs_visited > 1);
  Alcotest.(check bool)
    "stats identical across backends" true
    (sp = stats Engine.Arena)

(* --- forced closure fallback: machine == engine, digest-for-digest --- *)

let test_fallback_digest () =
  (* max_nodes:1 forces every pid to bail out of compilation, so the
     machine runs the closure interpreter over the arena — its outcome
     must still be digest-identical to the persistent engine's. *)
  let config = Protocols.Election.config cas_instance in
  List.iter
    (fun seed ->
      let sched, schedule =
        Runtime.Repro.recording (Runtime.Sched.random ~seed)
      in
      let outcome = Engine.run ~max_steps:400 ~sched config in
      (* drive the machine along the persistent run's recorded schedule *)
      let m = Machine.of_config ~max_nodes:1 config in
      List.iter
        (function
          | Runtime.Repro.Step pid -> Machine.step m pid
          | d ->
            Alcotest.failf "unexpected decision %a" Runtime.Repro.Decision.pp d)
        (schedule ());
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: every pid bailed to closures" seed)
        true
        (Array.for_all
           (fun (r : Runtime.Program.Compiled.report) ->
             r.Runtime.Program.Compiled.bailed)
           (Machine.reports m));
      Alcotest.(check string)
        (Printf.sprintf "seed %d: fallback digest" seed)
        (Fingerprint.digest outcome.Engine.final)
        (Fingerprint.digest (Machine.config m));
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: fallback trace and statuses" seed)
        true
        (Engine.config_equal outcome.Engine.final (Machine.config m)))
    [ 0; 1; 2; 3 ]

(* --- the engine's read classification matches the specs --- *)

let test_is_read_consistent () =
  (* [Op_codec.is_read] feeds the machine's [access]/POR read
     classification, so a misclassified mutating op would unsoundly
     commute.  Cross-check against the specs themselves: an op deemed a
     read must never change any reachable state of any zoo object. *)
  List.iter
    (fun (e : Objects.Zoo.entry) ->
      (* breadth-first closure of reachable states under the op universe,
         bounded — the zoo objects are tiny *)
      let seen = ref [ e.spec.Spec.init ] in
      let frontier = ref [ e.spec.Spec.init ] in
      let budget = ref 200 in
      while !frontier <> [] && !budget > 0 do
        decr budget;
        let state = List.hd !frontier in
        frontier := List.tl !frontier;
        List.iter
          (fun op ->
            match Spec.apply e.spec ~pid:0 state op with
            | Error _ -> ()
            | Ok (state', _) ->
              (if Objects.Op_codec.is_read op then
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: read op leaves state unchanged" e.name)
                   true
                   (Value.equal state state'));
              if not (List.exists (Value.equal state') !seen) then begin
                seen := state' :: !seen;
                frontier := state' :: !frontier
              end)
          e.ops
      done)
    (Objects.Zoo.all ())

let () =
  Alcotest.run "store"
    [
      ( "arena-equivalence",
        [
          Alcotest.test_case "random op sequences" `Quick test_random_ops;
        ] );
      ( "frame-delta",
        [ Alcotest.test_case "machine step delta" `Quick test_step_deltas ] );
      ( "cross-backend",
        [
          Alcotest.test_case "explore stats" `Quick test_explore_stats_agree;
          Alcotest.test_case "decision sets" `Quick test_decision_sets_agree;
          Alcotest.test_case "frame lockstep" `Quick test_frame_lockstep;
          Alcotest.test_case "oversized route" `Quick test_oversized_route;
          Alcotest.test_case "forced fallback digest" `Quick
            test_fallback_digest;
          Alcotest.test_case "visited gauges" `Quick test_visited_gauges;
          Alcotest.test_case "naive routes" `Quick test_naive_routes;
          Alcotest.test_case "walk_naive hooks" `Quick test_walk_naive_hooks;
          Alcotest.test_case "step bounds" `Quick test_step_bounds;
        ] );
      ( "op-classification",
        [
          Alcotest.test_case "is_read vs specs" `Quick test_is_read_consistent;
        ] );
    ]
