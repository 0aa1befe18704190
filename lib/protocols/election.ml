module Value = Memory.Value
module Engine = Runtime.Engine
module Sched = Runtime.Sched

type instance = {
  name : string;
  n : int;
  bindings : (string * Memory.Spec.t) list;
  program : int -> Runtime.Program.prim;
  step_bound : int;
}

let config t =
  let store = Memory.Store.create t.bindings in
  Engine.init store (List.init t.n t.program)

module View = Runtime.Engine.Config_view

(* Both checkers read the final state through the backend-neutral view:
   statuses, decisions, step counts — all O(1)/O(procs) flat-array reads
   on the arena backend, no per-terminal materialization.  The old
   validity test scanned the trace for the leader's pid; [View.stepped]
   (steps > 0) is equivalent — both backends record an event exactly
   when they increment a step count — and order-insensitive. *)
let check_config t view =
  let faults = View.faults view in
  (* First-decider order, no sort: this runs on every terminal of a
     checked walk, so the happy path must not allocate more than the
     decision list itself.  The violation report below re-sorts. *)
  let distinct = View.distinct_decisions view in
  let over_bound = View.over_step_bound view t.step_bound in
  match (faults, View.has_running view, distinct, over_bound) with
  | (pid, m) :: _, _, _, _ ->
    Error (Printf.sprintf "process %d faulty: %s" pid m)
  | [], true, _, _ ->
    Error "some live process did not decide (run incomplete?)"
  | [], false, [], _ ->
    (* Everyone crashed before deciding: vacuously fine. *)
    Ok ()
  | [], false, _ :: _ :: _, _ ->
    Error
      (Fmt.str "agreement violated: decisions %a"
         Fmt.(list ~sep:(any ", ") Value.pp)
         (List.sort Value.compare distinct))
  | [], false, [ _ ], Some (pid, steps) ->
    Error
      (Printf.sprintf
         "wait-freedom bound exceeded: process %d took %d > %d steps"
         pid steps t.step_bound)
  | [], false, [ leader ], None ->
    let pid =
      match leader with Value.Int i -> i | _ -> -1
    in
    if pid < 0 || pid >= t.n then
      Error (Fmt.str "elected identity %a is not a process id" Value.pp leader)
    else if not (View.stepped view pid) then
      Error
        (Printf.sprintf "validity violated: leader %d never took a step" pid)
    else Ok ()

let check_partial t view =
  (* For judging replayed schedule prefixes (Runtime.Repro shrinking):
     a still-running process is an incomplete run, not a violation, so
     only what has already happened may fail — faults, disagreement,
     budget overruns.  Completed configurations get the full check. *)
  if not (View.has_running view) then check_config t view
  else
    let fault =
      match View.faults view with
      | (pid, m) :: _ -> Some (Printf.sprintf "process %d faulty: %s" pid m)
      | [] -> None
    in
    let distinct = View.distinct_decisions view in
    let over =
      match View.over_step_bound view t.step_bound with
      | Some (pid, steps) ->
        Some
          (Printf.sprintf
             "wait-freedom bound exceeded: process %d took %d > %d steps"
             pid steps t.step_bound)
      | None -> None
    in
    match (fault, distinct, over) with
    | Some m, _, _ -> Error m
    | None, _ :: _ :: _, _ ->
      Error
        (Fmt.str "agreement violated: decisions %a"
           Fmt.(list ~sep:(any ", ") Value.pp)
           (List.sort Value.compare distinct))
    | None, _, Some m -> Error m
    | None, ([] | [ _ ]), None -> Ok ()

let check_outcome t (outcome : Engine.outcome) =
  if outcome.Engine.hit_step_limit then
    Error "run hit the global step limit (livelock or bound too small)"
  else check_config t (View.of_config outcome.Engine.final)

let run t ~sched =
  let outcome =
    Engine.run ~max_steps:(t.step_bound * t.n * 2 + 1000) ~sched (config t)
  in
  match check_outcome t outcome with
  | Ok () -> Ok outcome
  | Error _ as e -> e

let leader_of (outcome : Engine.outcome) =
  match outcome.Engine.decisions with
  | [] -> None
  | (_, v) :: _ -> Some v

let leader_int_exn outcome =
  match leader_of outcome with
  | Some (Value.Int i) -> i
  | _ -> failwith "no leader decided"

let run_random t ~seed =
  Result.map leader_int_exn (run t ~sched:(Sched.random ~seed))

let run_with_crashes_outcome t ~seed ~crashed =
  let sched = Sched.crashing ~crashed (Sched.random ~seed) in
  let config =
    List.fold_left (fun c pid -> Engine.crash c pid) (config t) crashed
  in
  let outcome =
    Engine.run ~max_steps:(t.step_bound * t.n * 2 + 1000) ~sched config
  in
  match check_outcome t outcome with
  | Ok () -> Ok outcome
  | Error _ as e -> e

let run_with_crashes t ~seed ~crashed =
  match run_with_crashes_outcome t ~seed ~crashed with
  | Error _ as e -> e
  | Ok outcome -> (
    match leader_of outcome with
    | Some (Value.Int i) -> Ok i
    | Some _ | None -> Error "no survivor decided")

(* [check_config] only inspects final statuses, decisions and per-pid
   trace projections — trace-order-insensitive, so every reduction is
   sound to request here (see Runtime.Explore). *)
let explore_repro ?(options = Runtime.Explore.Options.default) ?subject t
    ~max_steps =
  let options = { options with Runtime.Explore.Options.max_steps } in
  match Runtime.Explore.check_all ~options (config t) (check_config t) with
  | Ok stats -> Ok stats
  | Error v ->
    let cert =
      Runtime.Repro.of_decisions ?subject ~sched:"explore" ~max_steps
        ~message:v.Runtime.Explore.message (config t)
        v.Runtime.Explore.decisions
    in
    Error (v, cert)

let fuzz ?runs ?seed ?max_steps ?plan ?kind ?shrink ?subject ?progress t =
  let max_steps =
    Option.value ~default:((t.step_bound * t.n * 2) + 1000) max_steps
  in
  (* [check_partial], not [check_config]: a fuzz run may end with
     processes crashed or stalled mid-protocol, and under fault
     injection that is the interesting case — only genuine disagreement,
     faults, or budget overruns should count as violations. *)
  let failing view =
    match check_partial t view with Ok () -> None | Error m -> Some m
  in
  Runtime.Fuzz.campaign ?runs ?seed ~max_steps ?plan ?kind ?shrink ?subject
    ?progress ~failing (fun () -> config t)

let explore_stats ?options t ~max_steps =
  match explore_repro ?options t ~max_steps with
  | Ok stats -> Ok stats
  | Error (v, _) ->
    Error
      (Fmt.str "%s@.counterexample schedule:@.%a" v.Runtime.Explore.message
         Runtime.Trace.pp v.Runtime.Explore.trace)

let explore_all t ~max_steps =
  Result.map
    (fun (stats : Runtime.Explore.stats) -> stats.Runtime.Explore.terminals)
    (explore_stats t ~max_steps)
