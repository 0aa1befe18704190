(* Engine.Config_view: the backend-neutral read surface every checker
   now goes through.  Three contracts are pinned here:

   - accessor equivalence: on lockstep random walks the zero-copy
     machine-backed view, the persistent-config view and the
     materializing fallback agree on every accessor;
   - digest-pinned verdicts: check_all verdicts (stats and violations
     alike) and decision sets are byte-identical across backends in
     every reduction mode — including the journal-free reduced arena
     walk the dedup/por/dedup+por modes dispatch to;
   - the soundness guard: an order-inspecting predicate under dedup/por
     raises Unsound_predicate, order-free predicates and unreduced runs
     never do. *)

module Value = Memory.Value
module Store = Memory.Store
module Engine = Runtime.Engine
module Machine = Runtime.Engine.Machine
module View = Runtime.Engine.Config_view
module Explore = Runtime.Explore
module Fuzz = Runtime.Fuzz
module Fingerprint = Runtime.Fingerprint
module Election = Protocols.Election

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let mk_rng seed =
  let state = ref ((seed * 2654435769) + 1) in
  fun bound ->
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound

let cas_instance = Protocols.Cas_election.instance ~k:4 ~n:3

(* No_sharing: the two backends build structurally equal values with
   different physical sharing; the digest must only see the structure. *)
let digest_of x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

(* --- accessor equivalence on seeded random walks --- *)

let check_views_agree ~msg ~locs va vb =
  let n = View.n_procs va in
  Alcotest.(check int) (msg ^ ": n_procs") n (View.n_procs vb);
  Alcotest.(check int) (msg ^ ": time") (View.time va) (View.time vb);
  Alcotest.(check bool)
    (msg ^ ": has_running")
    (View.has_running va) (View.has_running vb);
  Alcotest.(check int)
    (msg ^ ": max_steps_per_proc")
    (View.max_steps_per_proc va)
    (View.max_steps_per_proc vb);
  List.iter
    (fun bound ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: over_step_bound %d" msg bound)
        true
        (View.over_step_bound va bound = View.over_step_bound vb bound))
    [ 0; 2; 1000 ];
  for pid = 0 to n - 1 do
    let p = Printf.sprintf "%s pid %d" msg pid in
    Alcotest.(check bool)
      (p ^ ": status") true
      (View.status va pid = View.status vb pid);
    Alcotest.(check bool)
      (p ^ ": is_running")
      (View.is_running va pid) (View.is_running vb pid);
    Alcotest.(check int) (p ^ ": steps") (View.steps va pid)
      (View.steps vb pid);
    Alcotest.(check bool)
      (p ^ ": stepped")
      (View.stepped va pid) (View.stepped vb pid);
    Alcotest.(check (option value))
      (p ^ ": decision") (View.decision va pid) (View.decision vb pid);
    Alcotest.(check bool)
      (p ^ ": events_of") true
      (View.events_of va pid = View.events_of vb pid)
  done;
  Alcotest.(check bool)
    (msg ^ ": decisions") true
    (View.decisions va = View.decisions vb);
  Alcotest.(check (list value))
    (msg ^ ": decision_values")
    (View.decision_values va)
    (View.decision_values vb);
  Alcotest.(check (list value))
    (msg ^ ": distinct_decisions")
    (View.distinct_decisions va)
    (View.distinct_decisions vb);
  Alcotest.(check bool)
    (msg ^ ": faults") true
    (View.faults va = View.faults vb);
  List.iter
    (fun loc ->
      Alcotest.(check (option value))
        (Printf.sprintf "%s: store_state %s" msg loc)
        (View.store_state va loc) (View.store_state vb loc);
      Alcotest.(check bool)
        (Printf.sprintf "%s: mem_loc %s" msg loc)
        (View.mem_loc va loc) (View.mem_loc vb loc))
    locs;
  Alcotest.(check bool)
    (msg ^ ": state_bindings")
    true
    (View.state_bindings va = View.state_bindings vb);
  Alcotest.(check int)
    (msg ^ ": trace_length")
    (View.trace_length va) (View.trace_length vb);
  (* the ordered accessors last: they mark the view as order-accessed *)
  Alcotest.(check bool)
    (msg ^ ": trace") true
    (View.trace va = View.trace vb);
  Alcotest.(check bool)
    (msg ^ ": last_event") true
    (View.last_event va = View.last_event vb);
  Alcotest.(check string)
    (msg ^ ": config digest")
    (Fingerprint.digest (View.config va))
    (Fingerprint.digest (View.config vb))

let test_accessors_agree () =
  List.iter
    (fun seed ->
      let config0 = Election.config cas_instance in
      let locs = "?" :: Store.locs config0.Engine.store in
      let m = Machine.of_config config0 in
      let c = ref config0 in
      let rng = mk_rng seed in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 150 do
        (match Machine.enabled m with
        | [] -> continue := false
        | en ->
          let pid = List.nth en (rng (List.length en)) in
          Machine.step m pid;
          c := Engine.step !c pid;
          incr steps);
        if (!steps mod 10 = 0 && !steps > 0) || not !continue then begin
          let msg = Printf.sprintf "seed %d step %d" seed !steps in
          (* machine-backed view vs the lockstep persistent walk *)
          check_views_agree ~msg:(msg ^ " (machine vs persistent)") ~locs
            (View.of_machine m)
            (View.of_config !c);
          (* machine-backed view vs its own materializing fallback *)
          check_views_agree ~msg:(msg ^ " (machine vs fallback)") ~locs
            (View.of_machine m)
            (View.of_config (Machine.config m))
        end
      done)
    [ 1; 7; 42 ]

(* --- digest-pinned cross-backend verdicts --- *)

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

let test_check_all_digests () =
  let config = Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let verdict backend =
        Explore.check_all
          ~options:(opts ~dedup ~por backend)
          config
          (Election.check_config cas_instance)
      in
      let vp = verdict Engine.Persistent in
      (match vp with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "%s: persistent verdict: %s" mode
                     v.Explore.message);
      Alcotest.(check string)
        (mode ^ ": check_all verdicts byte-identical across backends")
        (digest_of vp)
        (digest_of (verdict Engine.Arena)))
    modes

let test_decision_set_digests () =
  let config = Election.config cas_instance in
  List.iter
    (fun (mode, dedup, por) ->
      let sets backend =
        Explore.decision_sets ~options:(opts ~dedup ~por backend) config
      in
      Alcotest.(check string)
        (mode ^ ": decision sets byte-identical across backends")
        (digest_of (sets Engine.Persistent))
        (digest_of (sets Engine.Arena)))
    modes

(* --- the trace-order soundness guard --- *)

let guard_opts ~dedup backend =
  { Explore.Options.default with max_steps = 60; dedup; backend }

let test_guard_trips_on_order_access () =
  let config = Election.config cas_instance in
  let peeking view =
    ignore (View.trace view);
    Ok ()
  in
  List.iter
    (fun backend ->
      let name = Engine.backend_name backend in
      (* inspecting the trace under dedup is unsound: fail loudly *)
      (match
         Explore.check_all ~options:(guard_opts ~dedup:true backend) config
           peeking
       with
      | exception Explore.Unsound_predicate _ -> ()
      | _ -> Alcotest.failf "%s: dedup + trace access must raise" name);
      (* the same predicate on the unreduced walk is fine *)
      (match
         Explore.check_all ~options:(guard_opts ~dedup:false backend) config
           peeking
       with
      | Ok _ -> ()
      | Error v -> Alcotest.failf "%s: unreduced: %s" name v.Explore.message
      | exception Explore.Unsound_predicate m ->
        Alcotest.failf "%s: guard fired without reductions: %s" name m))
    [ Engine.Persistent; Engine.Arena ]

let test_guard_ignores_order_free_predicates () =
  let config = Election.config cas_instance in
  let order_free view =
    (* per-pid projections and flat state reads are commutation-sound,
       so they must not trip the guard even under dedup+por *)
    ignore (View.decision_values view);
    ignore (View.events_of view 0);
    ignore (View.trace_length view);
    ignore (View.state_bindings view);
    Ok ()
  in
  let options =
    { (guard_opts ~dedup:true Engine.Arena) with Explore.Options.por = true }
  in
  match Explore.check_all ~options config order_free with
  | Ok _ -> ()
  | Error v -> Alcotest.fail v.Explore.message
  | exception Explore.Unsound_predicate m ->
    Alcotest.failf "guard fired on an order-free predicate: %s" m

let () =
  Alcotest.run "view"
    [
      ( "equivalence",
        [
          Alcotest.test_case "accessors on random walks" `Quick
            test_accessors_agree;
        ] );
      ( "digest-pinned",
        [
          Alcotest.test_case "check_all verdicts" `Quick
            test_check_all_digests;
          Alcotest.test_case "decision sets" `Quick test_decision_set_digests;
        ] );
      ( "soundness-guard",
        [
          Alcotest.test_case "order access under dedup raises" `Quick
            test_guard_trips_on_order_access;
          Alcotest.test_case "order-free predicates pass" `Quick
            test_guard_ignores_order_free_predicates;
        ] );
    ]
