module Obs = Lepower_obs
module Json = Lepower_obs.Json

let m_runs = Obs.Metrics.counter "fuzz.runs"
let m_violations = Obs.Metrics.counter "fuzz.violations"
let ph_run = Lepower_prof.Phase.make "fuzz.run"

type sched_kind =
  | Random_walk
  | Pct of { depth : int }
  | Starve of { victim : int; stall : int }

let kind_name = function
  | Random_walk -> "random"
  | Pct _ -> "pct"
  | Starve _ -> "starve"

let instantiate kind ~seed ~max_steps =
  match kind with
  | Random_walk -> Sched.random ~seed
  | Pct { depth } -> Sched.pct ~seed ~depth ~max_steps ()
  | Starve { victim; stall } ->
    Sched.starve ~victim ~stall (Sched.random ~seed)

type run = {
  final : Engine.config;
  decisions : Repro.decision list;
  sched_name : string;
  injected : int;
  hit_step_limit : bool;
}

let run ?(max_steps = 1_000) ?(plan = Faults.none) ~kind ~seed config =
  Obs.Metrics.incr m_runs;
  let sched = instantiate kind ~seed ~max_steps in
  (* Built on the first roll, which a plan with no positive rate never
     makes.  Faults never add or remove objects, so the location list
     is fixed for the whole run. *)
  let rng = lazy (Random.State.make [| 0xfa17; seed |]) in
  let locs = lazy (Memory.Store.locs config.Engine.store) in
  let finish ~hit config log crashes faults =
    {
      final = config;
      decisions = List.rev log;
      sched_name = "fuzz:" ^ sched.Sched.name;
      injected = crashes + faults;
      hit_step_limit = hit;
    }
  in
  let rec go config log crashes faults =
    if config.Engine.time >= max_steps then
      finish ~hit:true config log crashes faults
    else
      match Engine.enabled config with
      | [] -> finish ~hit:false config log crashes faults
      | enabled -> (
        match
          Faults.decide ~plan ~rng ~crashes ~faults ~sched
            ~time:config.Engine.time ~enabled ~locs
        with
        | None -> finish ~hit:false config log crashes faults
        | Some d ->
          (* The engine protocol: [observe] fires for every decision that
             scheduled a process, lost writes included — the scheduler
             cannot tell a lost step from a real one, just as the process
             cannot. *)
          (match d with
          | Repro.Step pid | Repro.Lose pid ->
            sched.Sched.observe ~time:config.Engine.time ~pid
          | Repro.Crash _ | Repro.Stick _ -> ());
          let crashes' =
            match d with Repro.Crash _ -> crashes + 1 | _ -> crashes
          in
          let faults' =
            match d with
            | Repro.Lose _ | Repro.Stick _ -> faults + 1
            | _ -> faults
          in
          go (Faults.apply config d) (d :: log) crashes' faults')
  in
  let tok = Lepower_prof.Phase.enter ph_run in
  let r = go config [] 0 0 in
  Lepower_prof.Phase.leave tok;
  r

(* Live campaign progress: one callback per completed run (campaigns are
   run-bounded, so per-run cadence is cheap), carrying the totals a
   heartbeat needs to show runs/ETA/injection counts. *)
type progress = {
  p_run : int;  (** runs completed so far *)
  p_runs_total : int;
  p_injected : int;
  p_steps : int;
}

type outcome = {
  runs : int;
  first_violation : int option;
  injected : int;
  steps : int;
  cert : Repro.t option;
  shrink : Repro.shrink_stats option;
  message : string option;
}

let campaign ?(runs = 256) ?(seed = 1) ?(max_steps = 1_000)
    ?(plan = Faults.none) ?(kind = Pct { depth = 3 }) ?(shrink = true)
    ?(subject = Json.Null) ?progress ~failing fresh_config =
  Obs.Span.with_span "fuzz.campaign"
    ~args:
      [
        ("kind", Json.String (kind_name kind));
        ("runs", Json.Int runs);
        ("max_steps", Json.Int max_steps);
      ]
  @@ fun () ->
  let rec go i injected steps =
    if i >= runs then
      {
        runs = i;
        first_violation = None;
        injected;
        steps;
        cert = None;
        shrink = None;
        message = None;
      }
    else
      let config0 = fresh_config () in
      let r = run ~max_steps ~plan ~kind ~seed:(seed + i) config0 in
      let injected = injected + r.injected in
      let steps = steps + List.length r.decisions in
      (match progress with
      | Some f ->
        f { p_run = i + 1; p_runs_total = runs; p_injected = injected;
            p_steps = steps }
      | None -> ());
      match failing (Engine.Config_view.of_config r.final) with
      | None -> go (i + 1) injected steps
      | Some message ->
        Obs.Metrics.incr m_violations;
        let cert =
          Repro.of_decisions ~subject ~sched:r.sched_name ~seed:(seed + i)
            ~max_steps ~message config0 r.decisions
        in
        let cert, stats =
          if shrink then
            let failing c = failing c <> None in
            let cert, stats = Repro.shrink ~failing ~config0 cert in
            (cert, Some stats)
          else (cert, None)
        in
        {
          runs = i + 1;
          first_violation = Some i;
          injected;
          steps;
          cert = Some cert;
          shrink = stats;
          message = Some message;
        }
  in
  go 0 0 0
