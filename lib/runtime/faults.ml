module Obs = Lepower_obs

let m_injected = Obs.Metrics.counter "faults.injected"

type plan = {
  crash_p : float;
  lose_p : float;
  stick_p : float;
  max_crashes : int;
  max_faults : int;
}

let default =
  { crash_p = 0.02; lose_p = 0.05; stick_p = 0.01; max_crashes = 1;
    max_faults = 8 }

let none =
  { crash_p = 0.0; lose_p = 0.0; stick_p = 0.0; max_crashes = 0;
    max_faults = 0 }

let apply config decision =
  match decision with
  | Repro.Step pid -> Engine.step config pid
  | Repro.Crash pid ->
    Obs.Metrics.incr m_injected;
    Engine.crash config pid
  | Repro.Lose pid ->
    Obs.Metrics.incr m_injected;
    Engine.step_lost config pid
  | Repro.Stick loc ->
    Obs.Metrics.incr m_injected;
    { config with Engine.store = Memory.Store.freeze config.Engine.store loc }

let schedule ~sched ~time ~enabled ~lose =
  let pid = sched.Sched.choose ~time ~enabled in
  if not (List.mem pid enabled) then None (* Sched.halt *)
  else if lose then Some (Repro.Lose pid)
  else Some (Repro.Step pid)

(* One adversary decision, deterministic in [rng].  The scheduler is only
   consulted for decisions that schedule a process (Step/Lose), so its
   own state advances exactly with the executed schedule.  A band of
   width <= 0 never fires, so a plan with no positive rate has no use
   for a roll: [rng] and [locs] are then never forced. *)
let decide ~plan ~rng ~crashes ~faults ~sched ~time ~enabled ~locs =
  if not (plan.crash_p > 0.0 || plan.stick_p > 0.0 || plan.lose_p > 0.0) then
    schedule ~sched ~time ~enabled ~lose:false
  else
    let rng = Lazy.force rng in
    let roll = Random.State.float rng 1.0 in
    let in_band lo width = width > 0.0 && roll >= lo && roll < lo +. width in
    let fault_ok = faults < plan.max_faults in
    if in_band 0.0 plan.crash_p && crashes < plan.max_crashes
       && List.length enabled > 1
    then
      Some
        (Repro.Crash
           (List.nth enabled (Random.State.int rng (List.length enabled))))
    else if fault_ok && in_band plan.crash_p plan.stick_p
            && Lazy.force locs <> []
    then
      let locs = Lazy.force locs in
      Some (Repro.Stick (List.nth locs (Random.State.int rng (List.length locs))))
    else
      schedule ~sched ~time ~enabled
        ~lose:(fault_ok && in_band (plan.crash_p +. plan.stick_p) plan.lose_p)

let is_fault = function
  | Repro.Crash _ | Repro.Lose _ | Repro.Stick _ -> true
  | Repro.Step _ -> false
