type t = {
  name : string;
  choose : time:int -> enabled:int list -> int;
  observe : time:int -> pid:int -> unit;
}

let halt = -1
let no_observe ~time:_ ~pid:_ = ()
let make ?(observe = no_observe) ~name choose = { name; choose; observe }

let hd_exn = function
  | [] -> invalid_arg "Sched: empty enabled set"
  | pid :: _ -> pid

let round_robin () =
  (* The cursor is committed in [observe], not [choose]: under a wrapper
     that vetoes proposals (e.g. [crashing]) it tracks the schedule that
     actually ran instead of drifting on discarded choices. *)
  let last = ref (-1) in
  let choose ~time:_ ~enabled =
    match List.find_opt (fun pid -> pid > !last) enabled with
    | Some pid -> pid
    | None -> hd_exn enabled
  in
  let observe ~time:_ ~pid = last := pid in
  { name = "round-robin"; choose; observe }

let random ~seed =
  let state = Random.State.make [| seed |] in
  let choose ~time:_ ~enabled =
    List.nth enabled (Random.State.int state (List.length enabled))
  in
  make ~name:("random(" ^ string_of_int seed ^ ")") choose

let fixed pids =
  let remaining = ref pids in
  let fallback = round_robin () in
  let rec choose ~time ~enabled =
    match !remaining with
    | [] -> fallback.choose ~time ~enabled
    | pid :: rest ->
      remaining := rest;
      if List.mem pid enabled then pid else choose ~time ~enabled
  in
  { name = "fixed"; choose; observe = fallback.observe }

let prioritize order =
  let choose ~time:_ ~enabled =
    match List.find_opt (fun pid -> List.mem pid enabled) order with
    | Some pid -> pid
    | None -> hd_exn enabled
  in
  make ~name:"prioritize" choose

let pct ~seed ?(depth = 3) ~max_steps () =
  (* Priorities are keyed on (seed, pid) rather than assigned on first
     sight: a wrapper that vetoes a [choose] proposal must not perturb
     the priority of a pid we merely looked at.  The step counter and
     demotions commit in [observe], i.e. against the actual schedule.

     [prio.(pid)] is the pid's effective priority: [undrawn] until the
     pid's base priority is first needed, then that draw, until a
     demotion overwrites it (a demoted pid never needs its base). *)
  let undrawn = min_int in
  let prio = ref (Array.make 8 undrawn) in
  let slots pid =
    let a = !prio in
    if pid < Array.length a then a
    else begin
      let grown = Array.make (max (pid + 1) (2 * Array.length a)) undrawn in
      Array.blit a 0 grown 0 (Array.length a);
      prio := grown;
      grown
    end
  in
  let priority pid =
    let a = slots pid in
    let p = a.(pid) in
    if p <> undrawn then p
    else begin
      let st = Random.State.make [| 0x50c7; seed; pid |] in
      let p = Random.State.int st 0x3fffffff in
      a.(pid) <- p;
      p
    end
  in
  (* Change point [i] demotes whoever moves at step [change_at.(i)] to
     [change_level.(i)]; a step drawn twice keeps its first level.
     [full_int] makes the same draw as [int] for bounds below 2^30 and
     accepts any [max_steps]. *)
  let change_at, change_level =
    let st = Random.State.make [| 0x9c7; seed |] in
    let rec draw level points =
      if level >= depth then List.rev points
      else
        let at = Random.State.full_int st (max 1 max_steps) in
        draw (level + 1)
          (if List.mem_assoc at points then points else (at, level) :: points)
    in
    let points = draw 1 [] in
    (Array.of_list (List.map fst points), Array.of_list (List.map snd points))
  in
  let steps = ref 0 in
  let rec best b bp = function
    | [] -> b
    | p :: rest ->
      let pp = priority p in
      if pp > bp || (pp = bp && p < b) then best p pp rest
      else best b bp rest
  in
  let choose ~time:_ ~enabled =
    match enabled with
    | [] -> invalid_arg "Sched: empty enabled set"
    | pid :: rest -> best pid (priority pid) rest
  in
  let rec demote pid i =
    if i < Array.length change_at then
      if change_at.(i) = !steps then
        (* below every base priority *)
        (slots pid).(pid) <- change_level.(i) - 0x40000000
      else demote pid (i + 1)
  in
  let observe ~time:_ ~pid =
    demote pid 0;
    incr steps
  in
  let name =
    "pct(seed=" ^ string_of_int seed ^ ",d=" ^ string_of_int depth ^ ")"
  in
  { name; choose; observe }

let starve ~victim ~stall inner =
  let remaining = ref stall in
  let choose ~time ~enabled =
    if !remaining <= 0 then inner.choose ~time ~enabled
    else
      match List.filter (fun pid -> pid <> victim) enabled with
      | [] -> victim (* sole survivor: stalling further would stall the run *)
      | others -> inner.choose ~time ~enabled:others
  in
  let observe ~time ~pid =
    if !remaining > 0 then decr remaining;
    inner.observe ~time ~pid
  in
  { name =
      inner.name ^ "+starve(" ^ string_of_int victim ^ ","
      ^ string_of_int stall ^ ")";
    choose; observe }

let crashing ~crashed inner =
  let choose ~time ~enabled =
    match List.filter (fun pid -> not (List.mem pid crashed)) enabled with
    | [] -> halt
    | alive -> inner.choose ~time ~enabled:alive
  in
  let observe ~time ~pid = inner.observe ~time ~pid in
  { name = inner.name ^ "+crash"; choose; observe }
