module Value = Memory.Value
module Obs = Lepower_obs

(* Instrumentation points (no-ops unless Lepower_obs.Metrics is enabled). *)
let m_steps = Obs.Metrics.counter "engine.steps"
let m_store_ops = Obs.Metrics.counter "engine.store_ops"
let m_cas_success = Obs.Metrics.counter "engine.cas_success"
let m_cas_failure = Obs.Metrics.counter "engine.cas_failure"
let m_faults = Obs.Metrics.counter "engine.faults"
let m_runs = Obs.Metrics.counter "engine.runs"
let h_steps_per_proc = Obs.Metrics.histogram "engine.steps_per_proc"

(* Phase attribution (no-ops unless Lepower_prof.Phase is enabled). *)
let ph_step = Lepower_prof.Phase.make "engine.step"
let ph_choose = Lepower_prof.Phase.make "sched.choose"

type config = {
  store : Memory.Store.t;
  procs : Proc.t array;
  time : int;
  trace : Trace.event list;
}

type backend = Persistent | Arena

let backend_name = function Persistent -> "persistent" | Arena -> "arena"

(* Store-op metrics, shared by the persistent [step] and [Machine.step]
   so both backends feed the same counters. *)
let record_store_op o result =
  if Obs.Metrics.is_enabled () then begin
    Obs.Metrics.incr m_store_ops;
    (* A compare&swap succeeds iff it returns its expected value and
       actually changes the state (the alphabet-reading cas with
       expected = desired is a read, not a successful swap). *)
    match o with
    | Value.Pair (Value.Sym "cas", Value.Pair (expected, desired)) ->
      if Value.equal result expected && not (Value.equal expected desired)
      then Obs.Metrics.incr m_cas_success
      else Obs.Metrics.incr m_cas_failure
    | _ -> ()
  end

let init store progs =
  let procs = List.mapi (fun pid prog -> Proc.make ~pid prog) progs in
  { store; procs = Array.of_list procs; time = 0; trace = [] }

let enabled config =
  let acc = ref [] in
  for i = Array.length config.procs - 1 downto 0 do
    if Proc.is_running config.procs.(i) then acc := i :: !acc
  done;
  !acc

let set_proc config pid proc =
  let procs = Array.copy config.procs in
  procs.(pid) <- proc;
  { config with procs }

let step_impl config pid =
  let proc = config.procs.(pid) in
  if not (Proc.is_running proc) then config
  else begin
    Obs.Metrics.incr m_steps;
    match proc.Proc.prog with
    | Program.Done v ->
      set_proc config pid { proc with status = Proc.Decided v }
    | Program.Step (loc, o, k) -> (
      match Memory.Store.apply config.store ~pid loc o with
      | Error msg ->
        Obs.Metrics.incr m_faults;
        set_proc config pid { proc with status = Proc.Faulty msg }
      | Ok (store, result) ->
        record_store_op o result;
        let event = { Trace.time = config.time; pid; loc; op = o; result } in
        let proc' =
          match k result with
          | exception Value.Type_error (want, got) ->
            Obs.Metrics.incr m_faults;
            {
              proc with
              Proc.status =
                Proc.Faulty
                  (Printf.sprintf "type error: expected %s, got %s" want
                     (Value.to_string got));
              steps = proc.Proc.steps + 1;
            }
          | Program.Done v ->
            {
              proc with
              Proc.prog = Program.Done v;
              status = Proc.Decided v;
              steps = proc.Proc.steps + 1;
            }
          | next ->
            { proc with Proc.prog = next; steps = proc.Proc.steps + 1 }
        in
        let config = set_proc config pid proc' in
        { config with store; time = config.time + 1; trace = event :: config.trace })
  end

let step config pid =
  let tok = Lepower_prof.Phase.enter ph_step in
  let config' = step_impl config pid in
  Lepower_prof.Phase.leave tok;
  config'

let step_lost config pid =
  (* Lost-write fault: the process takes its step — response computed
     against the pre-state, continuation advanced, trace event recorded,
     clock ticked — but the store keeps its pre-step states, so any write
     the operation performed evaporates.  The process cannot tell. *)
  let config' = step config pid in
  { config' with store = config.store }

let crash config pid =
  let proc = config.procs.(pid) in
  if Proc.is_running proc then
    set_proc config pid { proc with Proc.status = Proc.Crashed }
  else config

let trace config = List.rev config.trace

type outcome = {
  final : config;
  decisions : (int * Value.t) list;
  faults : (int * string) list;
  crashes : int list;
  steps : int;
  hit_step_limit : bool;
}

let outcome_of ~hit_step_limit config =
  let decisions = ref [] and faults = ref [] and crashes = ref [] in
  Array.iter
    (fun (p : Proc.t) ->
      match p.Proc.status with
      | Proc.Decided v -> decisions := (p.Proc.pid, v) :: !decisions
      | Proc.Faulty m -> faults := (p.Proc.pid, m) :: !faults
      | Proc.Crashed -> crashes := p.Proc.pid :: !crashes
      | Proc.Running -> ())
    config.procs;
  {
    final = config;
    decisions = List.rev !decisions;
    faults = List.rev !faults;
    crashes = List.rev !crashes;
    steps = config.time;
    hit_step_limit;
  }

let run ?(max_steps = 1_000_000) ~sched config =
  let rec go config =
    if config.time >= max_steps then outcome_of ~hit_step_limit:true config
    else
      match enabled config with
      | [] -> outcome_of ~hit_step_limit:false config
      | pids ->
        let pid =
          let tok = Lepower_prof.Phase.enter ph_choose in
          let pid = sched.Sched.choose ~time:config.time ~enabled:pids in
          Lepower_prof.Phase.leave tok;
          pid
        in
        (* [Sched.halt] — or, defensively, any pid outside the enabled
           set, which would otherwise no-op-step forever — ends the run
           with every process left in its current status. *)
        if not (List.mem pid pids) then
          outcome_of ~hit_step_limit:false config
        else begin
          sched.Sched.observe ~time:config.time ~pid;
          go (step config pid)
        end
  in
  Obs.Metrics.incr m_runs;
  Obs.Span.with_span "engine.run"
    ~args:
      [
        ("procs", Obs.Json.Int (Array.length config.procs));
        ("sched", Obs.Json.String sched.Sched.name);
      ]
    (fun () ->
      let outcome = go config in
      if Obs.Metrics.is_enabled () then
        Array.iter
          (fun (p : Proc.t) ->
            Obs.Metrics.observe h_steps_per_proc (Float.of_int p.Proc.steps))
          outcome.final.procs;
      outcome)

let distinct_decisions outcome =
  List.fold_left
    (fun acc (_, v) -> if List.exists (Value.equal v) acc then acc else v :: acc)
    [] outcome.decisions
  |> List.rev

let max_steps_per_proc outcome =
  Array.fold_left
    (fun acc (p : Proc.t) -> max acc p.Proc.steps)
    0 outcome.final.procs

let status_equal a b =
  match (a, b) with
  | Proc.Running, Proc.Running | Proc.Crashed, Proc.Crashed -> true
  | Proc.Decided x, Proc.Decided y -> Value.equal x y
  | Proc.Faulty x, Proc.Faulty y -> String.equal x y
  | (Proc.Running | Proc.Decided _ | Proc.Crashed | Proc.Faulty _), _ -> false

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.time = b.Trace.time
  && a.Trace.pid = b.Trace.pid
  && String.equal a.Trace.loc b.Trace.loc
  && Value.equal a.Trace.op b.Trace.op
  && Value.equal a.Trace.result b.Trace.result

let config_equal a b =
  a.time = b.time
  && Memory.Store.compare_states a.store b.store = 0
  && Array.length a.procs = Array.length b.procs
  && Array.for_all2
       (fun (p : Proc.t) (q : Proc.t) ->
         p.Proc.steps = q.Proc.steps && status_equal p.Proc.status q.Proc.status)
       a.procs b.procs
  && List.equal event_equal a.trace b.trace

(* ------------------------------------------------------------------ *)
(* The arena-backed machine: same step semantics, mutation + journal.  *)

let read_sym = Value.Sym "read"

module Machine = struct
  (* Hot-path state is kept in unboxed int arrays so the DFS inner loop
     performs no [caml_modify] write barriers:

     - a pc is an int: [>= 0] is a compiled node id, [-1] means "the
       closure-interpreter continuation in [prim_pcs.(pid)]";
     - a status is one of the [st_*] codes below, with the decided
       value / fault message parked in side arrays ([decided.(pid)] /
       [faults.(pid)] are only meaningful under the matching code, and
       may go stale after an undo — never read them otherwise). *)
  let st_running = 0

  let st_crashed = 1

  let st_decided = 2

  let st_faulty = 3

  let prim_dummy = Program.Done Value.Unit

  (* One journal entry per status-changing or store-touching step:
     [J_event] is a successful store operation (steps/time advanced, the
     trace grew, and the arena journal position [smark] — taken {e
     before} the apply — bounds its store writes); [J_status] is a pure
     status change out of [Running] (decide, store-rejected fault,
     crash) with the pc untouched.  [prev_node >= 0] restores the pc
     directly; otherwise [prev_prim] holds the pre-step closure
     continuation. *)
  type jentry =
    | J_event of {
        pid : int;
        prev_node : int;
        prev_prim : Program.prim;
        smark : int;
        loc : string;
        op : Value.t;
        result : Value.t;
        time : int;
      }
    | J_status of { pid : int }

  (* Fused transition memo, one per compiled [Node] instruction.  A
     clean store-op step from a node is a pure function of the current
     state of the instruction's location: [Spec.apply] is a
     deterministic sequential specification, and [pid], [loc] and [op]
     are all fixed by the instruction, as is the continuation edge given
     the result.  Bounded-size objects have tiny state alphabets, so a
     short association array keyed by state covers the whole transition
     table after a brief warm-up and the hot path skips the spec closure
     (operation decoding, alphabet scans) and both hash lookups.

     Validity: an arena never replaces a location's spec, so an entry
     stays valid for the machine's lifetime.  Faulting and
     inline-fallback outcomes are never memoized. *)
  type xout = {
    x_state' : Value.t;
    x_result : Value.t;
    x_next : int;  (* next node id *)
    x_decided : Value.t option;  (* [Some v] when [x_next] is [Done v] *)
  }

  type xinst = {
    x_loc : int;  (* interned arena id of the instruction's location *)
    x_loc_name : string;
    x_op : Value.t;
    mutable x_n : int;
    mutable x_keys : Value.t array;  (* pre-states, scanned linearly *)
    mutable x_outs : xout array;
  }

  type t = {
    arena : Memory.Store.Arena.t;
    progs : Program.Compiled.t array;
    pcs : int array;
    prim_pcs : Program.prim array;
    statuses : int array;
    decided : Value.t array;
    faults : string array;
    steps : int array;
    mutable time : int;
    base_trace : Trace.event list;
        (* reverse-chron trace of the seed config; the machine's own
           events live in the journal and are materialized on demand *)
    mutable journal : jentry array;
    mutable jlen : int;
    j_statuses : jentry array;
        (* interned per-pid [J_status] entries so status-only journal
           pushes (decide, crash, store-rejected fault) allocate nothing *)
    memos : xinst option array array;  (* per pid, indexed by node id *)
    (* Scratch describing the most recent [step]'s store operation, for
       callers maintaining incremental fingerprints.  Valid only until
       the next step/undo. *)
    mutable last_valid : bool;
    mutable last_loc : string;
    mutable last_op : Value.t;
    mutable last_result : Value.t;
  }

  let of_config ?max_nodes (config : config) =
    let n = Array.length config.procs in
    let statuses = Array.make n st_running in
    let decided = Array.make n Value.Unit in
    let faults = Array.make n "" in
    Array.iteri
      (fun i (p : Proc.t) ->
        match p.Proc.status with
        | Proc.Running -> ()
        | Proc.Crashed -> statuses.(i) <- st_crashed
        | Proc.Decided v ->
          statuses.(i) <- st_decided;
          decided.(i) <- v
        | Proc.Faulty msg ->
          statuses.(i) <- st_faulty;
          faults.(i) <- msg)
      config.procs;
    {
      arena = Memory.Store.Arena.of_store config.store;
      progs =
        Array.map
          (fun (p : Proc.t) -> Program.Compiled.compile ?max_nodes p.Proc.prog)
          config.procs;
      pcs = Array.make n 0;
      prim_pcs = Array.make n prim_dummy;
      statuses;
      decided;
      faults;
      steps = Array.map (fun (p : Proc.t) -> p.Proc.steps) config.procs;
      time = config.time;
      base_trace = config.trace;
      journal = Array.make 64 (J_status { pid = 0 });
      jlen = 0;
      j_statuses = Array.init n (fun pid -> J_status { pid });
      memos = Array.init n (fun _ -> [||]);
      last_valid = false;
      last_loc = "";
      last_op = Value.Unit;
      last_result = Value.Unit;
    }

  let n_procs m = Array.length m.pcs
  let time m = m.time

  let status m pid =
    let s = m.statuses.(pid) in
    if s = st_running then Proc.Running
    else if s = st_crashed then Proc.Crashed
    else if s = st_decided then Proc.Decided m.decided.(pid)
    else Proc.Faulty m.faults.(pid)

  let is_running m pid = m.statuses.(pid) = st_running

  let enabled m =
    let acc = ref [] in
    for i = Array.length m.statuses - 1 downto 0 do
      if is_running m i then acc := i :: !acc
    done;
    !acc

  let mem_loc m loc = Memory.Store.Arena.mem m.arena loc
  let state_bindings m = Memory.Store.Arena.state_bindings m.arena

  let push m e =
    (if m.jlen = Array.length m.journal then begin
       let j = Array.make (2 * m.jlen) m.journal.(0) in
       Array.blit m.journal 0 j 0 m.jlen;
       m.journal <- j
     end);
    m.journal.(m.jlen) <- e;
    m.jlen <- m.jlen + 1

  let decide m pid v =
    m.statuses.(pid) <- st_decided;
    m.decided.(pid) <- v;
    push m m.j_statuses.(pid)

  (* Status flip inside a store-op step: the step's own [J_event]
     restores [Running] on undo, so no [J_status] entry is logged. *)
  let decide_nopush m pid v =
    m.statuses.(pid) <- st_decided;
    m.decided.(pid) <- v

  let fault m pid msg =
    m.statuses.(pid) <- st_faulty;
    m.faults.(pid) <- msg

  (* ---- transition-memo plumbing ---- *)

  let memo_slot m pid id =
    let xa = m.memos.(pid) in
    let len = Array.length xa in
    if id < len then xa
    else begin
      let xa' = Array.make (max (2 * len) (id + 8)) None in
      Array.blit xa 0 xa' 0 len;
      m.memos.(pid) <- xa';
      xa'
    end

  let memo_seed m cp id =
    let loc = Program.Compiled.loc_at cp id in
    match Memory.Store.Arena.id_of_loc m.arena loc with
    | None -> None  (* unknown location: the slow path faults *)
    | Some li ->
      Some
        {
          x_loc = li;
          x_loc_name = loc;
          x_op = Program.Compiled.op_value_at cp id;
          x_n = 0;
          x_keys = [||];
          x_outs = [||];
        }

  let rec memo_find x st k =
    if k >= x.x_n then -1
    else
      (* in bounds: [k < x_n <= Array.length x_keys] *)
      let key = Array.unsafe_get x.x_keys k in
      if key == st || Value.equal key st then k else memo_find x st (k + 1)

  let memo_append x key o =
    (if x.x_n = Array.length x.x_keys then begin
       let cap = max 4 (2 * x.x_n) in
       let ks = Array.make cap key and os = Array.make cap o in
       Array.blit x.x_keys 0 ks 0 x.x_n;
       Array.blit x.x_outs 0 os 0 x.x_n;
       x.x_keys <- ks;
       x.x_outs <- os
     end);
    x.x_keys.(x.x_n) <- key;
    x.x_outs.(x.x_n) <- o;
    x.x_n <- x.x_n + 1

  (* Generic node step — first visit of a (node, state) pair, or a
     non-memoizable outcome.  On a clean [Ok] + node continuation it
     installs the transition into [x] for next time. *)
  let step_node_slow m pid cp id x =
    let loc = Program.Compiled.loc_at cp id in
    let op = Program.Compiled.op_value_at cp id in
    let smark = Memory.Store.Arena.mark m.arena in
    match Memory.Store.Arena.apply m.arena ~pid loc op with
    | Error msg ->
      Obs.Metrics.incr m_faults;
      fault m pid msg;
      push m m.j_statuses.(pid)
    | Ok result ->
      record_store_op op result;
      (match Program.Compiled.advance cp id result with
      | Program.Compiled.O_fault msg ->
        (* pc deliberately unchanged, like the persistent engine
           keeping [prog] on a continuation type error *)
        Obs.Metrics.incr m_faults;
        fault m pid msg
      | Program.Compiled.O_next id' ->
        m.pcs.(pid) <- id';
        if Program.Compiled.is_done cp id' then
          decide_nopush m pid (Program.Compiled.decided_value cp id')
      | Program.Compiled.O_inline next -> (
        m.pcs.(pid) <- -1;
        m.prim_pcs.(pid) <- next;
        match next with
        | Program.Done v -> decide_nopush m pid v
        | Program.Step _ -> ()));
      m.steps.(pid) <- m.steps.(pid) + 1;
      push m
        (J_event
           {
             pid;
             prev_node = id;
             prev_prim = prim_dummy;
             smark;
             loc;
             op;
             result;
             time = m.time;
           });
      m.time <- m.time + 1;
      m.last_valid <- true;
      m.last_loc <- loc;
      m.last_op <- op;
      m.last_result <- result;
      (match x with
      | None -> ()
      | Some x ->
        if m.statuses.(pid) <> st_faulty then begin
          let next = m.pcs.(pid) in
          if next >= 0 then
            memo_append x
              (Memory.Store.Arena.last_old_state m.arena)
              {
                x_state' = Memory.Store.Arena.state_at m.arena x.x_loc;
                x_result = result;
                x_next = next;
                x_decided =
                  (if m.statuses.(pid) = st_decided then
                     Some m.decided.(pid)
                   else None);
              }
        end)

  (* Closure-interpreter fallback for instructions the lowering bailed
     on — identical to the persistent engine's continuation handling. *)
  let step_prim_slow m pid prim loc op k =
    let smark = Memory.Store.Arena.mark m.arena in
    match Memory.Store.Arena.apply m.arena ~pid loc op with
    | Error msg ->
      Obs.Metrics.incr m_faults;
      fault m pid msg;
      push m m.j_statuses.(pid)
    | Ok result ->
      record_store_op op result;
      (match k result with
      | exception Value.Type_error (want, got) ->
        Obs.Metrics.incr m_faults;
        fault m pid
          (Printf.sprintf "type error: expected %s, got %s" want
             (Value.to_string got))
      | Program.Done v ->
        m.prim_pcs.(pid) <- Program.Done v;
        decide_nopush m pid v
      | next -> m.prim_pcs.(pid) <- next);
      m.steps.(pid) <- m.steps.(pid) + 1;
      push m
        (J_event
           {
             pid;
             prev_node = -1;
             prev_prim = prim;
             smark;
             loc;
             op;
             result;
             time = m.time;
           });
      m.time <- m.time + 1;
      m.last_valid <- true;
      m.last_loc <- loc;
      m.last_op <- op;
      m.last_result <- result

  let step_impl m pid =
    m.last_valid <- false;
    if m.statuses.(pid) = st_running then begin
      Obs.Metrics.incr m_steps;
      let cp = m.progs.(pid) in
      let id = m.pcs.(pid) in
      if id >= 0 then
        if Program.Compiled.is_done cp id then
          decide m pid (Program.Compiled.decided_value cp id)
        else begin
          let xa = memo_slot m pid id in
          let x =
            match xa.(id) with
            | Some _ as x -> x
            | None ->
              let x = memo_seed m cp id in
              xa.(id) <- x;
              x
          in
          match x with
          | None -> step_node_slow m pid cp id None
          | Some x ->
            let st = Memory.Store.Arena.state_at m.arena x.x_loc in
            let k = memo_find x st 0 in
            if k < 0 then step_node_slow m pid cp id (Some x)
            else begin
              let o = x.x_outs.(k) in
              let smark = Memory.Store.Arena.mark m.arena in
              Memory.Store.Arena.commit_state m.arena x.x_loc st o.x_state';
              record_store_op x.x_op o.x_result;
              m.pcs.(pid) <- o.x_next;
              (match o.x_decided with
              | None -> ()
              | Some v -> decide_nopush m pid v);
              m.steps.(pid) <- m.steps.(pid) + 1;
              push m
                (J_event
                   {
                     pid;
                     prev_node = id;
                     prev_prim = prim_dummy;
                     smark;
                     loc = x.x_loc_name;
                     op = x.x_op;
                     result = o.x_result;
                     time = m.time;
                   });
              m.time <- m.time + 1;
              m.last_valid <- true;
              m.last_loc <- x.x_loc_name;
              m.last_op <- x.x_op;
              m.last_result <- o.x_result
            end
        end
      else
        match m.prim_pcs.(pid) with
        | Program.Done v -> decide m pid v
        | Program.Step (loc, op, k) as prim ->
          step_prim_slow m pid prim loc op k
    end

  let step m pid =
    let tok = Lepower_prof.Phase.enter ph_step in
    step_impl m pid;
    Lepower_prof.Phase.leave tok

  let crash m pid =
    if is_running m pid then begin
      m.statuses.(pid) <- st_crashed;
      push m m.j_statuses.(pid)
    end

  let mark m = m.jlen

  let undo_to m mk =
    while m.jlen > mk do
      m.jlen <- m.jlen - 1;
      match m.journal.(m.jlen) with
      | J_status { pid } -> m.statuses.(pid) <- st_running
      | J_event e ->
        m.statuses.(e.pid) <- st_running;
        (if e.prev_node >= 0 then m.pcs.(e.pid) <- e.prev_node
         else begin
           m.pcs.(e.pid) <- -1;
           m.prim_pcs.(e.pid) <- e.prev_prim
         end);
        m.steps.(e.pid) <- m.steps.(e.pid) - 1;
        m.time <- m.time - 1;
        Memory.Store.Arena.undo_to m.arena e.smark
    done;
    m.last_valid <- false

  (* ---- allocation-free naive enumeration ---- *)

  type walk_stats = {
    mutable w_configs : int;
    mutable w_terminals : int;
    mutable w_truncated : int;
    mutable w_max_depth : int;
    mutable w_choice_points : int;
  }

  (* Exhaustive naive walk (every interleaving, optional crash moves, no
     memoization).  Nothing needs the journal or the trace: every move's
     undo data lives in the DFS stack frame.  Memo-hit steps write the
     arena directly and restore the saved state on backtrack; first
     visits and non-memoizable steps (prim fallback, faults, decide-only
     programs) go through the journaled [step_impl]/[undo_to] pair.
     Crash moves are a status flip both ways.  Traversal order and
     counter semantics mirror the Explore naive DFS exactly; steps are
     not phase-attributed here (metrics counters are still fed when
     enabled).

     The walk records every move into a path it owns ([Step pid] as
     [pid], [Crash pid] as [-pid-1]).  The path grows with the depth
     reached and is never sized by [max_steps]: a branch holds one slot
     per step plus one per crash.  A leaf hook gets the path and the number
     of moves recorded, so it can rebuild the schedule (and from it the
     trace) by replaying [path.(0 .. mc-1)] from the walk's root
     configuration; that is the only way to the trace at a leaf, since
     memo-hit steps bypass the journal.  The array is valid only during
     the hook call, and hooks observe the machine mid-walk: they must not
     step or undo it. *)
  let walk_naive ?tick ?on_terminal ?on_truncated ~crash_faults ~max_steps
      ~depth0 ws m =
    let n = Array.length m.statuses in
    let statuses = m.statuses and pcs = m.pcs and steps = m.steps in
    let arena = m.arena in
    let sarr = Memory.Store.Arena.states_view arena in
    let metrics_on = Obs.Metrics.is_enabled () in
    let path = ref (Array.make 64 0) in
    (* [running] is threaded through the recursion so leaves need no
       status scan at all; every status flip below adjusts it. *)
    let running0 = ref 0 in
    for pid = 0 to n - 1 do
      if statuses.(pid) = st_running then incr running0
    done;
    (* unsafe_get/set: [pid < n], memo ids are within the slot array by
       the explicit length check, [memo_find] returns [< x_n], [x_loc]
       was interned by the arena, and every move of a node writes path
       slot [mc], which the node makes room for before its first move
       (deeper nodes only ever grow the path) — all indices are in
       bounds by construction. *)
    let rec go depth mc running =
      if depth > ws.w_max_depth then ws.w_max_depth <- depth;
      ws.w_configs <- ws.w_configs + 1;
      (if ws.w_configs land 8191 = 0 then
         match tick with None -> () | Some f -> f ws);
      if running = 0 then begin
        ws.w_terminals <- ws.w_terminals + 1;
        match on_terminal with None -> () | Some f -> f !path mc
      end
      else if depth >= max_steps then begin
        ws.w_truncated <- ws.w_truncated + 1;
        match on_truncated with None -> () | Some f -> f !path mc
      end
      else begin
        if running >= 2 || crash_faults then
          ws.w_choice_points <- ws.w_choice_points + 1;
        if mc >= Array.length !path then begin
          let p = Array.make (2 * (mc + 1)) 0 in
          Array.blit !path 0 p 0 (Array.length !path);
          path := p
        end;
        for pid = 0 to n - 1 do
          if Array.unsafe_get statuses pid = st_running then begin
            (let fast =
               let pcv = Array.unsafe_get pcs pid in
               if pcv < 0 then false
               else
                 let xa = Array.unsafe_get m.memos pid in
                 if pcv >= Array.length xa then false
                 else
                   (* a memo only ever exists for non-[Done] nodes, so
                      the [is_done] dispatch is implicit here *)
                   match Array.unsafe_get xa pcv with
                   | Some x -> (
                     let st = Array.unsafe_get sarr x.x_loc in
                     let k = memo_find x st 0 in
                     if k < 0 then false
                     else begin
                       (* gentle move-to-front: a hit bubbles one slot
                          toward the front, so the DFS's temporal
                          locality keeps the common state at scan
                          position 0 without thrashing *)
                       let k =
                         if k > 0 then begin
                           let pk = Array.unsafe_get x.x_keys (k - 1)
                           and po = Array.unsafe_get x.x_outs (k - 1) in
                           Array.unsafe_set x.x_keys (k - 1)
                             (Array.unsafe_get x.x_keys k);
                           Array.unsafe_set x.x_outs (k - 1)
                             (Array.unsafe_get x.x_outs k);
                           Array.unsafe_set x.x_keys k pk;
                           Array.unsafe_set x.x_outs k po;
                           k - 1
                         end
                         else k
                       in
                       let o = Array.unsafe_get x.x_outs k in
                       if metrics_on then begin
                         Obs.Metrics.incr m_steps;
                         record_store_op x.x_op o.x_result
                       end;
                       Array.unsafe_set sarr x.x_loc o.x_state';
                       Array.unsafe_set pcs pid o.x_next;
                       let running' =
                         match o.x_decided with
                         | None -> running
                         | Some v ->
                           Array.unsafe_set statuses pid st_decided;
                           Array.unsafe_set m.decided pid v;
                           running - 1
                       in
                       Array.unsafe_set steps pid
                         (Array.unsafe_get steps pid + 1);
                       m.time <- m.time + 1;
                       Array.unsafe_set !path mc pid;
                       go (depth + 1) (mc + 1) running';
                       m.time <- m.time - 1;
                       Array.unsafe_set steps pid
                         (Array.unsafe_get steps pid - 1);
                       Array.unsafe_set statuses pid st_running;
                       Array.unsafe_set pcs pid pcv;
                       Array.unsafe_set sarr x.x_loc st;
                       true
                     end)
                   | _ -> false
             in
             if not fast then begin
               let mk = m.jlen in
               step_impl m pid;
               Array.unsafe_set !path mc pid;
               go (depth + 1) (mc + 1)
                 (if is_running m pid then running else running - 1);
               undo_to m mk
             end);
            if crash_faults then begin
              Array.unsafe_set statuses pid st_crashed;
              Array.unsafe_set !path mc (-pid - 1);
              go depth (mc + 1) (running - 1);
              Array.unsafe_set statuses pid st_running
            end
          end
        done
      end
    in
    go depth0 0 !running0

  let last_old_state m = Memory.Store.Arena.last_old_state m.arena

  let last_new_state m =
    Memory.Store.Arena.state_at m.arena (Memory.Store.Arena.last_id m.arena)

  (* ---- journal-free single-step frames ----

     The reduced explorer (dedup / sleep-set POR) cannot hand the whole
     enumeration to [walk_naive]: it interleaves its own bookkeeping
     (visited-table key, sleep bitsets, visited table) between moves.
     A [frame] packages exactly one move's undo data in the caller's
     stack frame instead of the journal: [step_frame] replicates the
     memoized fast path of [walk_naive] (direct array writes, gentle
     move-to-front) and records the inverse plus the step's store delta
     in the frame; first visits and non-memoizable steps fall back to
     the journaled [step_impl], with the frame holding only the mark.
     The [frame_*] accessors expose the delta uniformly across both
     paths so callers maintaining incremental fingerprints never touch
     the machine's scratch directly. *)

  type frame = {
    mutable f_fast : bool;  (* true: stack-undo memo hit; false: journaled *)
    mutable f_pid : int;
    mutable f_pc : int;  (* fast: node id to restore *)
    mutable f_loc : int;  (* fast: arena location id touched *)
    mutable f_mark : int;  (* slow: journal mark to rewind to *)
    mutable f_loc_name : string;
    mutable f_op : Value.t;
    mutable f_result : Value.t;
    mutable f_old : Value.t;
    mutable f_new : Value.t;
  }

  let frame () =
    {
      f_fast = false;
      f_pid = 0;
      f_pc = 0;
      f_loc = 0;
      f_mark = 0;
      f_loc_name = "";
      f_op = Value.Unit;
      f_result = Value.Unit;
      f_old = Value.Unit;
      f_new = Value.Unit;
    }

  let step_frame m pid f =
    f.f_pid <- pid;
    let fast =
      let pcv = m.pcs.(pid) in
      if pcv < 0 then false
      else
        let xa = m.memos.(pid) in
        if pcv >= Array.length xa then false
        else
          match xa.(pcv) with
          | Some x -> (
            let sarr = Memory.Store.Arena.states_view m.arena in
            let st = sarr.(x.x_loc) in
            let k = memo_find x st 0 in
            if k < 0 then false
            else begin
              (* gentle move-to-front, exactly as in [walk_naive] *)
              let k =
                if k > 0 then begin
                  let pk = x.x_keys.(k - 1) and po = x.x_outs.(k - 1) in
                  x.x_keys.(k - 1) <- x.x_keys.(k);
                  x.x_outs.(k - 1) <- x.x_outs.(k);
                  x.x_keys.(k) <- pk;
                  x.x_outs.(k) <- po;
                  k - 1
                end
                else k
              in
              let o = x.x_outs.(k) in
              if Obs.Metrics.is_enabled () then begin
                Obs.Metrics.incr m_steps;
                record_store_op x.x_op o.x_result
              end;
              sarr.(x.x_loc) <- o.x_state';
              m.pcs.(pid) <- o.x_next;
              (match o.x_decided with
              | None -> ()
              | Some v ->
                m.statuses.(pid) <- st_decided;
                m.decided.(pid) <- v);
              m.steps.(pid) <- m.steps.(pid) + 1;
              m.time <- m.time + 1;
              f.f_fast <- true;
              f.f_pc <- pcv;
              f.f_loc <- x.x_loc;
              f.f_loc_name <- x.x_loc_name;
              f.f_op <- x.x_op;
              f.f_result <- o.x_result;
              f.f_old <- st;
              f.f_new <- o.x_state';
              true
            end)
          | _ -> false
    in
    if not fast then begin
      f.f_fast <- false;
      f.f_mark <- m.jlen;
      step_impl m pid
    end

  let undo_frame m f =
    if f.f_fast then begin
      let pid = f.f_pid in
      m.time <- m.time - 1;
      m.steps.(pid) <- m.steps.(pid) - 1;
      (* a memo hit never faults or crashes: the only status a fast
         step can set is [Decided], so restoring [Running] is exact *)
      m.statuses.(pid) <- st_running;
      m.pcs.(pid) <- f.f_pc;
      Memory.Store.Arena.write_state m.arena f.f_loc f.f_old;
      m.last_valid <- false
    end
    else undo_to m f.f_mark

  (* Memo hits are always genuine store operations (only clean [Ok]
     transitions are memoized), so on the fast path there is always an
     event; the slow path defers to the machine's scratch. *)
  let frame_step_event m f = f.f_fast || m.last_valid
  let frame_loc m f = if f.f_fast then f.f_loc_name else m.last_loc

  let frame_loc_id m f =
    if f.f_fast then f.f_loc else Memory.Store.Arena.last_id m.arena
  let frame_op m f = if f.f_fast then f.f_op else m.last_op
  let frame_result m f = if f.f_fast then f.f_result else m.last_result
  let frame_old_state m f = if f.f_fast then f.f_old else last_old_state m
  let frame_new_state m f = if f.f_fast then f.f_new else last_new_state m

  (* Crash moves in a frame-based walk are a status flip both ways —
     identical to [walk_naive]'s crash handling, no journal entry.  The
     caller must only crash a currently-running process and must pair
     every [crash_frame] with an [uncrash_frame] on backtrack. *)
  let crash_frame m pid = m.statuses.(pid) <- st_crashed
  let uncrash_frame m pid = m.statuses.(pid) <- st_running

  (* Compact machine snapshots: the structural state that tells
     configurations of one exploration apart — store states in slot
     order plus per-process status — with an equality that compares the
     snapshot against the *live* machine, so a comparison materializes
     nothing.  Location names are deliberately absent: within one
     exploration the arena layout is fixed, so slot index [i] always
     denotes the same location and comparing values slotwise makes
     exactly the distinctions [Fingerprint.equal] makes on the sorted
     binding list. *)
  type snapshot = {
    sn_states : Value.t array;
    sn_statuses : int array;
    sn_decided : Value.t array;
    sn_faults : string array;
  }

  (* Plain copies: [decided]/[faults] slots of processes in other states
     carry stale values, but [snapshot_equal] only consults them behind
     the matching status code, so they never influence equality. *)
  let snapshot m =
    {
      sn_states = Array.copy (Memory.Store.Arena.states_view m.arena);
      sn_statuses = Array.copy m.statuses;
      sn_decided = Array.copy m.decided;
      sn_faults = Array.copy m.faults;
    }

  let snapshot_equal m s =
    let sarr = Memory.Store.Arena.states_view m.arena in
    let k = Array.length sarr in
    let n = Array.length m.statuses in
    Array.length s.sn_states = k
    && Array.length s.sn_statuses = n
    && (let rec states i =
          i >= k
          ||
          (* physical first: memoized transitions reinstall the same
             value blocks, so revisits usually share states physically *)
          (let a = Array.unsafe_get sarr i
           and b = Array.unsafe_get s.sn_states i in
           (a == b || Value.equal a b) && states (i + 1))
        in
        states 0)
    &&
    let rec procs i =
      i >= n
      ||
      let st = m.statuses.(i) in
      st = s.sn_statuses.(i)
      && (st <> st_decided || Value.equal m.decided.(i) s.sn_decided.(i))
      && (st <> st_faulty || String.equal m.faults.(i) s.sn_faults.(i))
      && procs (i + 1)
    in
    procs 0

  let access m pid =
    let pcv = m.pcs.(pid) in
    if pcv >= 0 then begin
      let cp = m.progs.(pid) in
      if Program.Compiled.is_done cp pcv then None
      else
        Some (Program.Compiled.loc_at cp pcv, Program.Compiled.read_at cp pcv)
    end
    else
      match m.prim_pcs.(pid) with
      | Program.Step (loc, op, _) -> Some (loc, Value.equal op read_sym)
      | Program.Done _ -> None

  (* [access] without the option/tuple allocation, for commutation
     checks in hot loops: [-1] = no pending access, [-2] = access on a
     location the store does not know (compare those by name via
     [access]; they fault when stepped, but until then they are real
     accesses), else [2 * slot lor read]. *)
  let access_enc m pid =
    let enc loc read =
      match Memory.Store.Arena.id_of_loc m.arena loc with
      | Some id -> (2 * id) lor Bool.to_int read
      | None -> -2
    in
    let pcv = m.pcs.(pid) in
    if pcv >= 0 then begin
      let cp = m.progs.(pid) in
      if Program.Compiled.is_done cp pcv then -1
      else begin
        (* a warm memo carries the interned slot — skip the name lookup *)
        let xa = m.memos.(pid) in
        let read = Program.Compiled.read_at cp pcv in
        if pcv < Array.length xa then
          match xa.(pcv) with
          | Some x -> (2 * x.x_loc) lor Bool.to_int read
          | None -> enc (Program.Compiled.loc_at cp pcv) read
        else enc (Program.Compiled.loc_at cp pcv) read
      end
    end
    else
      match m.prim_pcs.(pid) with
      | Program.Step (loc, op, _) -> enc loc (Value.equal op read_sym)
      | Program.Done _ -> -1

  let config m =
    let procs =
      Array.init (Array.length m.pcs) (fun pid ->
          {
            Proc.pid;
            prog =
              (let pcv = m.pcs.(pid) in
               if pcv >= 0 then Program.Compiled.prim_at m.progs.(pid) pcv
               else m.prim_pcs.(pid));
            steps = m.steps.(pid);
            status = status m pid;
          })
    in
    let trace = ref m.base_trace in
    for i = 0 to m.jlen - 1 do
      match m.journal.(i) with
      | J_event e ->
        trace :=
          {
            Trace.time = e.time;
            pid = e.pid;
            loc = e.loc;
            op = e.op;
            result = e.result;
          }
          :: !trace
      | J_status _ -> ()
    done;
    {
      store = Memory.Store.Arena.to_store m.arena;
      procs;
      time = m.time;
      trace = !trace;
    }

  let reports m = Array.map Program.Compiled.report m.progs
end

module Config_view = struct
  type impl =
    | V_config of config
    | V_flat of Machine.t * (unit -> config)
        (* live machine: flat accessors read the machine arrays
           directly, anything trace-shaped comes from the materializer
           ([Machine.config] for a journaled machine; for the explorer's
           journal-free walks, a replay of the recorded move path from
           the walk's root configuration) *)

  type t = {
    impl : impl;
    mutable ordered : bool;
        (* set once any accessor exposing global trace order runs;
           [Explore.check_all]'s soundness guard reads it *)
    mutable cached_trace : Trace.t option;
    mutable cached_config : config option;
  }

  let of_config c =
    { impl = V_config c; ordered = false; cached_trace = None;
      cached_config = Some c }

  let of_machine_flat m ~replay =
    { impl = V_flat (m, replay); ordered = false; cached_trace = None;
      cached_config = None }

  let of_machine m = of_machine_flat m ~replay:(fun () -> Machine.config m)

  let n_procs v =
    match v.impl with
    | V_config c -> Array.length c.procs
    | V_flat (m, _) -> Machine.n_procs m

  let time v =
    match v.impl with
    | V_config c -> c.time
    | V_flat (m, _) -> Machine.time m

  let status v pid =
    match v.impl with
    | V_config c -> c.procs.(pid).Proc.status
    | V_flat (m, _) -> Machine.status m pid

  let is_running v pid =
    match v.impl with
    | V_config c -> Proc.is_running c.procs.(pid)
    | V_flat (m, _) -> Machine.is_running m pid

  (* The per-pid accessors below are specialized per implementation
     rather than layered on [status]: checkers run them on every
     terminal of a walk, and the generic path would allocate a
     [Proc.status] per query on the machine backend. *)

  let has_running v =
    match v.impl with
    | V_config c ->
      let procs = c.procs in
      let n = Array.length procs in
      let rec go pid = pid < n && (Proc.is_running procs.(pid) || go (pid + 1)) in
      go 0
    | V_flat (m, _) ->
      let st = m.Machine.statuses in
      let n = Array.length st in
      let rec go pid =
        pid < n && (st.(pid) = Machine.st_running || go (pid + 1))
      in
      go 0

  let steps v pid =
    match v.impl with
    | V_config c -> c.procs.(pid).Proc.steps
    | V_flat (m, _) -> m.Machine.steps.(pid)

  (* [steps pid > 0] iff pid has a trace event: both backends record an
     event exactly when they increment [steps] (decide steps and
     store-rejected faults touch neither; a continuation type error
     records both).  This gives checkers the per-pid "took a
     shared-memory step" test without scanning the trace. *)
  let stepped v pid = steps v pid > 0

  let max_steps_per_proc v =
    let best = ref 0 in
    for pid = 0 to n_procs v - 1 do
      let s = steps v pid in
      if s > !best then best := s
    done;
    !best

  let over_step_bound v bound =
    match v.impl with
    | V_config c ->
      let procs = c.procs in
      let n = Array.length procs in
      let rec go pid =
        if pid >= n then None
        else
          let s = procs.(pid).Proc.steps in
          if s > bound then Some (pid, s) else go (pid + 1)
      in
      go 0
    | V_flat (m, _) ->
      let steps = m.Machine.steps in
      let n = Array.length steps in
      let rec go pid =
        if pid >= n then None
        else
          let s = steps.(pid) in
          if s > bound then Some (pid, s) else go (pid + 1)
      in
      go 0

  let decision v pid =
    match v.impl with
    | V_config c -> (
      match c.procs.(pid).Proc.status with
      | Proc.Decided x -> Some x
      | _ -> None)
    | V_flat (m, _) ->
      if m.Machine.statuses.(pid) = Machine.st_decided then
        Some m.Machine.decided.(pid)
      else None

  let decisions v =
    let acc = ref [] in
    for pid = n_procs v - 1 downto 0 do
      match decision v pid with
      | Some x -> acc := (pid, x) :: !acc
      | None -> ()
    done;
    !acc

  let decision_values v =
    match v.impl with
    | V_config c ->
      let acc = ref [] in
      for pid = Array.length c.procs - 1 downto 0 do
        match c.procs.(pid).Proc.status with
        | Proc.Decided x -> acc := x :: !acc
        | _ -> ()
      done;
      !acc
    | V_flat (m, _) ->
      let st = m.Machine.statuses in
      let acc = ref [] in
      for pid = Array.length st - 1 downto 0 do
        if st.(pid) = Machine.st_decided then
          acc := m.Machine.decided.(pid) :: !acc
      done;
      !acc

  (* First-decider (lowest-pid) order.  Scans the backing arrays
     directly — no intermediate [decision_values] list — because
     agreement checkers call this on every terminal of a walk; [acc]
     carries the distinct values seen so far in reverse, which stays
     tiny (1 for any agreeing terminal), so the [exists] is effectively
     constant and the final [rev] one cons in the common case. *)
  let distinct_decisions v =
    match v.impl with
    | V_config c ->
      let procs = c.procs in
      let n = Array.length procs in
      let rec go acc pid =
        if pid >= n then List.rev acc
        else
          match procs.(pid).Proc.status with
          | Proc.Decided x when not (List.exists (Value.equal x) acc) ->
            go (x :: acc) (pid + 1)
          | _ -> go acc (pid + 1)
      in
      go [] 0
    | V_flat (m, _) ->
      let st = m.Machine.statuses in
      let d = m.Machine.decided in
      let n = Array.length st in
      let rec go acc pid =
        if pid >= n then List.rev acc
        else if
          st.(pid) = Machine.st_decided
          && not (List.exists (Value.equal d.(pid)) acc)
        then go (d.(pid) :: acc) (pid + 1)
        else go acc (pid + 1)
      in
      go [] 0

  let faults v =
    match v.impl with
    | V_config c ->
      let acc = ref [] in
      for pid = Array.length c.procs - 1 downto 0 do
        match c.procs.(pid).Proc.status with
        | Proc.Faulty msg -> acc := (pid, msg) :: !acc
        | _ -> ()
      done;
      !acc
    | V_flat (m, _) ->
      let st = m.Machine.statuses in
      let acc = ref [] in
      for pid = Array.length st - 1 downto 0 do
        if st.(pid) = Machine.st_faulty then
          acc := (pid, m.Machine.faults.(pid)) :: !acc
      done;
      !acc

  let store_state v loc =
    match v.impl with
    | V_config c -> Memory.Store.peek c.store loc
    | V_flat (m, _) -> Memory.Store.Arena.peek m.Machine.arena loc

  let mem_loc v loc =
    match v.impl with
    | V_config c -> Memory.Store.peek c.store loc <> None
    | V_flat (m, _) -> Machine.mem_loc m loc

  let state_bindings v =
    match v.impl with
    | V_config c -> Memory.Store.state_bindings c.store
    | V_flat (m, _) -> Machine.state_bindings m

  (* Materialize the persistent configuration behind this view without
     marking an order access: the order-free projections of a machine
     view ([trace_length], [events_of]) need the materialized trace, but
     exposing them must not trip the soundness guard. *)
  let materialize v =
    match v.cached_config with
    | Some c -> c
    | None ->
      let c =
        match v.impl with
        | V_config c -> c
        | V_flat (_, replay) -> replay ()
      in
      v.cached_config <- Some c;
      c

  let trace_length v = List.length (materialize v).trace

  let events_of v pid =
    (* Per-pid projection, chronological.  Deliberately does {e not}
       set [ordered]: a single process's own operations keep their
       relative order under any commutation of independent steps, so
       projections stay sound under dedup/POR. *)
    List.rev
      (List.filter
         (fun (e : Trace.event) -> e.Trace.pid = pid)
         (materialize v).trace)

  let order_accessed v = v.ordered

  let trace v =
    v.ordered <- true;
    match v.cached_trace with
    | Some t -> t
    | None ->
      let t = List.rev (materialize v).trace in
      v.cached_trace <- Some t;
      t

  let last_event v =
    v.ordered <- true;
    match (materialize v).trace with e :: _ -> Some e | [] -> None

  let config v =
    v.ordered <- true;
    materialize v
end
