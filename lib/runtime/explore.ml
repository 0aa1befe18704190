type stats = {
  terminals : int;
  truncated : int;
  max_depth : int;
  choice_points : int;
  configs_visited : int;
  configs_deduped : int;
  por_pruned : int;
  por_checks : int;
  por_fast_hits : int;
  domains_used : int;
}

exception Stop_exploration

let m_configs = Lepower_obs.Metrics.counter "explore.configs_visited"
let m_choice_points = Lepower_obs.Metrics.counter "explore.choice_points"
let m_terminals = Lepower_obs.Metrics.counter "explore.terminals"
let m_truncated = Lepower_obs.Metrics.counter "explore.truncated"
let m_deduped = Lepower_obs.Metrics.counter "explore.configs_deduped"
let m_por_pruned = Lepower_obs.Metrics.counter "explore.por_pruned"
let m_por_checks = Lepower_obs.Metrics.counter "explore.por_checks"
let m_por_fast_hits = Lepower_obs.Metrics.counter "explore.por_fast_hits"

(* Phase attribution (no-ops unless Lepower_prof.Phase is enabled):
   [explore.walk] carries the traversal residual; fingerprint/dedup and
   POR commutation checks are nested phases, so their cost is charged to
   themselves and subtracted from the walk's self time. *)
let ph_walk = Lepower_prof.Phase.make "explore.walk"
let ph_fingerprint = Lepower_prof.Phase.make "explore.fingerprint"
let ph_por = Lepower_prof.Phase.make "explore.por"
let ph_frontier = Lepower_prof.Phase.make "explore.frontier"

(* Live progress for long campaigns: a rate-limited callback (every 8192
   configurations per worker) with the running totals — globally merged
   under [domains], via relaxed atomics.  The counts a parallel reader
   sees momentarily lag the workers; the final stats do not. *)
type progress = {
  p_configs : int;
  p_terminals : int;
  p_truncated : int;
  p_deduped : int;
  p_pruned : int;
  p_max_depth : int;
  p_domains : int;
}

(* ------------------------------------------------------------------ *)
(* Options.                                                           *)

module Options = struct
  type t = {
    max_steps : int;
    crash_faults : bool;
    dedup : bool;
    por : bool;
    domains : int;
    backend : Engine.backend;
    footprints : (string list * string list) array;
    analyze : (Engine.Config_view.t -> unit) option;
    on_terminal : (Engine.Config_view.t -> unit) option;
    on_truncated : (Engine.Config_view.t -> unit) option;
    on_lowering : (Program.Compiled.report array -> unit) option;
    progress : (progress -> unit) option;
  }

  let default =
    {
      max_steps = 10_000;
      crash_faults = false;
      dedup = false;
      por = false;
      domains = 1;
      backend = Engine.Persistent;
      footprints = [||];
      analyze = None;
      on_terminal = None;
      on_truncated = None;
      on_lowering = None;
      progress = None;
    }
end

(* ------------------------------------------------------------------ *)
(* Adversary moves and the independence relation (POR).               *)

type move = Step_m of int | Crash_m of int

let move_pid = function Step_m pid | Crash_m pid -> pid

let move_equal a b =
  match (a, b) with
  | Step_m x, Step_m y | Crash_m x, Crash_m y -> x = y
  | (Step_m _ | Crash_m _), _ -> false

let decision_of_move = function
  | Step_m pid -> Repro.Step pid
  | Crash_m pid -> Repro.Crash pid

(* What a move touches at [config]: [None] when it accesses no shared
   location (a crash, or a decide step of a [Done] program); otherwise
   the location and whether the operation is a pure read.  The read
   encoding is [Op_codec.read_op = Sym "read"] — the one wire format the
   whole object zoo shares; [test_explore] cross-checks the two against
   each other so they cannot drift apart. *)
let move_access (config : Engine.config) = function
  | Crash_m _ -> None
  | Step_m pid -> (
    match config.Engine.procs.(pid).Proc.prog with
    | Program.Done _ -> None
    | Program.Step (loc, op, _) ->
      Some (loc, Memory.Value.equal op (Memory.Value.Sym "read")))

(* Two moves commute (their order is unobservable up to global trace
   order) when they belong to distinct processes and do not conflict on
   a location: ops on distinct locations commute, and read-read on the
   same location commutes.  Moves touching no location (crashes, decide
   steps) commute with every other process's moves.  In this model a
   process's enabledness depends only on its own status, so independent
   moves can never enable or disable one another. *)
let independent config m1 m2 =
  move_pid m1 <> move_pid m2
  &&
  match (move_access config m1, move_access config m2) with
  | None, _ | _, None -> true
  | Some (l1, r1), Some (l2, r2) -> (not (String.equal l1 l2)) || (r1 && r2)

(* Summary-seeded commutation matrix (the POR fast path): [m.(p).(q)] is
   [true] when processes [p] and [q] commute at {e every} configuration —
   neither's static may-write set meets the other's footprint, so any
   location both touch is read by both.  A sufficient condition only:
   [false] entries fall back to the per-move [independent] check, so an
   over-approximating footprint can cost precision but never soundness. *)
let fast_matrix footprints =
  let n = Array.length footprints in
  if n = 0 then None
  else
    let module Ss = Set.Make (String) in
    let writes = Array.map (fun (_, w) -> Ss.of_list w) footprints in
    let foot =
      Array.mapi (fun i (r, _) -> Ss.union (Ss.of_list r) writes.(i)) footprints
    in
    Some
      (Array.init n (fun p ->
           Array.init n (fun q ->
               p <> q
               && Ss.is_empty (Ss.inter writes.(p) foot.(q))
               && Ss.is_empty (Ss.inter writes.(q) foot.(p)))))

let sleep_mem m sleep = List.exists (move_equal m) sleep
let sleep_subset a b = List.for_all (fun m -> sleep_mem m b) a
let sleep_inter a b = List.filter (fun m -> sleep_mem m b) a

(* ------------------------------------------------------------------ *)
(* Internal knobs and mutable accumulators.                           *)

(* The walker that runs every DFS item of one exploration: the
   persistent [explore_seq], or one of the two arena walks.  Reduced
   arena runs whose sleep set would not fit one int bitset ([Step_m p]
   at bit [p], [Crash_m p] at bit [n + p], so [2n <= 62]) take
   [explore_seq]: same stats, no lowering. *)
type walker = Seq | Arena_naive | Arena_reduced

type opts = {
  o_max_steps : int;
  o_crash_faults : bool;
  o_dedup : bool;
  o_por : bool;
  o_walker : walker;
  o_fast : bool array array option;
}

let opts_of (options : Options.t) ~n_procs =
  let reduced = options.Options.dedup || options.Options.por in
  {
    o_max_steps = options.Options.max_steps;
    o_crash_faults = options.Options.crash_faults;
    o_dedup = options.Options.dedup;
    o_por = options.Options.por;
    o_walker =
      (match options.Options.backend with
      | Engine.Persistent -> Seq
      | Engine.Arena when not reduced -> Arena_naive
      | Engine.Arena when 2 * n_procs <= 62 -> Arena_reduced
      | Engine.Arena -> Seq);
    o_fast = fast_matrix options.Options.footprints;
  }

type acc = {
  mutable a_terminals : int;
  mutable a_truncated : int;
  mutable a_max_depth : int;
  mutable a_choice_points : int;
  mutable a_configs : int;
  mutable a_deduped : int;
  mutable a_pruned : int;
  mutable a_por_checks : int;
  mutable a_fast : int;
}

let acc_create () =
  {
    a_terminals = 0;
    a_truncated = 0;
    a_max_depth = 0;
    a_choice_points = 0;
    a_configs = 0;
    a_deduped = 0;
    a_pruned = 0;
    a_por_checks = 0;
    a_fast = 0;
  }

let acc_merge into from =
  into.a_terminals <- into.a_terminals + from.a_terminals;
  into.a_truncated <- into.a_truncated + from.a_truncated;
  into.a_max_depth <- max into.a_max_depth from.a_max_depth;
  into.a_choice_points <- into.a_choice_points + from.a_choice_points;
  into.a_configs <- into.a_configs + from.a_configs;
  into.a_deduped <- into.a_deduped + from.a_deduped;
  into.a_pruned <- into.a_pruned + from.a_pruned;
  into.a_por_checks <- into.a_por_checks + from.a_por_checks;
  into.a_fast <- into.a_fast + from.a_fast

(* The reduced walk's visited table.  [Fingerprint.Tbl] would force the
   walk to materialize a full fingerprint record (sorted binding list +
   procs array) per lookup just so [Hashtbl] has a key to hash and
   compare — on the dedup-heavy workloads that costs more than the walk
   itself (three lookups per stored config on cas k=8 n=7).  Instead
   each entry keeps a compact {!Engine.Machine.snapshot} plus the
   history array, and a probe compares entries against the *live*
   machine — a hit allocates nothing; only a miss (first visit) pays
   the snapshot.  Same hash ({!Fingerprint.combine} of the incremental
   sums) and the same structural distinctions as [Fingerprint.equal],
   so hit/miss decisions — and therefore every stat — stay
   byte-identical with the reference walk. *)
type rentry = {
  re_hash : int;
  re_snap : Engine.Machine.snapshot;
  re_hists : Fingerprint.history array;
  mutable re_sleep : int;  (** bitset sleep set stored at first visit *)
}

type rtbl = { mutable r_buckets : rentry list array; mutable r_count : int }

let rtbl_create size = { r_buckets = Array.make (max 16 size) []; r_count = 0 }

let rtbl_find tbl m histories h =
  let bs = tbl.r_buckets in
  let n = Array.length histories in
  let rec scan = function
    | [] -> None
    | e :: rest ->
      if
        e.re_hash = h
        (* histories first: hash-consing makes the usual hit a run of
           pointer equalities, cheaper than the snapshot's value
           comparisons *)
        && (let rec hists i =
              i >= n
              || (Fingerprint.history_equal e.re_hists.(i) histories.(i)
                 && hists (i + 1))
            in
            hists 0)
        && Engine.Machine.snapshot_equal m e.re_snap
      then Some e
      else scan rest
  in
  scan bs.(h mod Array.length bs)

let rtbl_add tbl m histories h sleep =
  (if tbl.r_count >= 2 * Array.length tbl.r_buckets then begin
     let bs' = Array.make (2 * Array.length tbl.r_buckets) [] in
     Array.iter
       (List.iter (fun e ->
            let i = e.re_hash mod Array.length bs' in
            bs'.(i) <- e :: bs'.(i)))
       tbl.r_buckets;
     tbl.r_buckets <- bs'
   end);
  let i = h mod Array.length tbl.r_buckets in
  tbl.r_buckets.(i) <-
    {
      re_hash = h;
      re_snap = Engine.Machine.snapshot m;
      re_hists = Array.copy histories;
      re_sleep = sleep;
    }
    :: tbl.r_buckets.(i);
  tbl.r_count <- tbl.r_count + 1

(* Visited-set representation, fixed per run by [opts]: [explore_seq]
   stores the sleep set at first visit as a move list keyed by full
   fingerprints; the reduced arena walk uses the snapshot table above.
   Dispatch depends on [opts] alone — never on a particular DFS item —
   so workers can pick the representation before seeing any work and
   share one table across their frontier items. *)
type visited_tbl =
  | V_lists of move list Fingerprint.Tbl.t
  | V_bits of rtbl

let visited_create opts size =
  if not opts.o_dedup then None
  else if opts.o_walker = Arena_reduced then Some (V_bits (rtbl_create size))
  else Some (V_lists (Fingerprint.Tbl.create size))

let visited_lists = function Some (V_lists t) -> Some t | _ -> None
let visited_bits = function Some (V_bits t) -> Some t | _ -> None

let initial_histories (config : Engine.config) =
  Array.make (Array.length config.Engine.procs) Fingerprint.history_empty

(* Step process [pid] and, when memoizing, extend its fingerprint history
   with the event the step appended (decide steps and store-rejected
   faults append none — physical trace identity detects that). *)
let step_with_history opts (config : Engine.config) histories pid =
  let config' = Engine.step config pid in
  let histories' =
    if not opts.o_dedup then histories
    else if config'.Engine.trace != config.Engine.trace then
      match config'.Engine.trace with
      | e :: _ ->
        let h = Array.copy histories in
        h.(pid) <- Fingerprint.history_extend h.(pid) e;
        h
      | [] -> histories
    else histories
  in
  (config', histories')

let moves_of opts pids =
  (* Same traversal order as the historical naive walk: for each enabled
     pid in ascending order, its step move then (with crash faults) its
     crash move. *)
  List.concat_map
    (fun pid ->
      if opts.o_crash_faults then [ Step_m pid; Crash_m pid ]
      else [ Step_m pid ])
    pids

(* ------------------------------------------------------------------ *)
(* The sequential core: DFS with optional visited-set memoization and  *)
(* sleep-set partial-order reduction.                                  *)
(*                                                                     *)
(* Every node carries [rpath], the root-to-node adversary decisions in  *)
(* reverse; callbacks receive it so leaves are replayable certificates  *)
(* for free.  With [dedup]/[por] a pruned revisit reports nothing, so   *)
(* any path that does reach a callback is a genuine schedule.           *)
(*                                                                     *)
(* Memoization: a configuration's fingerprint determines its reachable *)
(* futures AND its depth (depth = per-proc events + decided + faulted, *)
(* all fingerprint-determined), so pruning a revisit can never cut off *)
(* budget the first visit did not have.                                *)
(*                                                                     *)
(* Sleep sets (Godefroid): after exploring move [m] at a node, [m] is  *)
(* put to sleep for the remaining sibling subtrees, and a child's      *)
(* sleep set keeps only moves independent of the move just taken.      *)
(* Combined with the visited set, a revisit may only be pruned when    *)
(* the stored sleep set is a subset of the current one; otherwise the  *)
(* node is re-explored with the intersection (state-space caching      *)
(* discipline), which keeps the combination sound.                     *)

let explore_seq ~opts ~acc ?tick ~visited ~analyze ~on_terminal ~on_truncated
    (config0, histories0, depth0, rpath0) =
  let rec go config histories depth rpath sleep =
    if depth > acc.a_max_depth then acc.a_max_depth <- depth;
    let enabled = Engine.enabled config in
    let leaf = enabled = [] || depth >= opts.o_max_steps in
    let proceed sleep =
      acc.a_configs <- acc.a_configs + 1;
      (* Rate-limited so a no-op tick costs one mask and branch. *)
      if acc.a_configs land 8191 = 0 then
        (match tick with Some f -> f acc | None -> ());
      match enabled with
      | [] ->
        (match (analyze, on_terminal) with
        | None, None -> acc.a_terminals <- acc.a_terminals + 1
        | _ ->
          (* One view per terminal, shared by both hooks, so the
             soundness guard sees every access the leaf performed. *)
          let view = Engine.Config_view.of_config config in
          let path () = rpath in
          (match analyze with None -> () | Some f -> f view path);
          acc.a_terminals <- acc.a_terminals + 1;
          (match on_terminal with None -> () | Some f -> f view path))
      | _ when depth >= opts.o_max_steps ->
        acc.a_truncated <- acc.a_truncated + 1;
        (match on_truncated with
        | None -> ()
        | Some f -> f (Engine.Config_view.of_config config) (fun () -> rpath))
      | pids ->
        (* A choice point is a configuration where the adversary has more
           than one move: several enabled processes, or (with crash
           faults) the step/crash alternative for even a single one. *)
        if (match pids with _ :: _ :: _ -> true | _ -> opts.o_crash_faults)
        then acc.a_choice_points <- acc.a_choice_points + 1;
        let rec loop sleep explored = function
          | [] -> ()
          | m :: rest ->
            if sleep_mem m sleep then begin
              acc.a_pruned <- acc.a_pruned + 1;
              loop sleep explored rest
            end
            else begin
              let child_sleep =
                if opts.o_por then begin
                  let tok = Lepower_prof.Phase.enter ph_por in
                  let kept =
                    List.filter
                      (fun m' ->
                        acc.a_por_checks <- acc.a_por_checks + 1;
                        let p = move_pid m' and q = move_pid m in
                        match opts.o_fast with
                        | Some fast
                          when p <> q
                               && p < Array.length fast
                               && q < Array.length fast
                               && fast.(p).(q) ->
                          acc.a_fast <- acc.a_fast + 1;
                          true
                        | _ -> independent config m' m)
                      (List.rev_append explored sleep)
                  in
                  Lepower_prof.Phase.leave tok;
                  kept
                end
                else []
              in
              let rpath' = decision_of_move m :: rpath in
              (match m with
              | Step_m pid ->
                let config', histories' =
                  step_with_history opts config histories pid
                in
                go config' histories' (depth + 1) rpath' child_sleep
              | Crash_m pid ->
                go (Engine.crash config pid) histories depth rpath' child_sleep);
              loop sleep (if opts.o_por then m :: explored else explored) rest
            end
        in
        loop sleep [] (moves_of opts pids)
    in
    match visited with
    | None -> proceed sleep
    | Some tbl -> (
      let tok = Lepower_prof.Phase.enter ph_fingerprint in
      let action =
        let key = Fingerprint.make config histories in
        match Fingerprint.Tbl.find_opt tbl key with
        | None ->
          Fingerprint.Tbl.add tbl key (if leaf then [] else sleep);
          `Proceed sleep
        | Some stored when leaf || sleep_subset stored sleep ->
          (* Everything this node would explore was already explored
             under a sleep set no larger than the current one. *)
          `Dedup
        | Some stored ->
          (* Revisit with moves awake that slept last time: re-explore
             under the intersection so no transition is lost. *)
          let sleep = sleep_inter sleep stored in
          Fingerprint.Tbl.replace tbl key sleep;
          `Proceed sleep
      in
      Lepower_prof.Phase.leave tok;
      match action with
      | `Dedup -> acc.a_deduped <- acc.a_deduped + 1
      | `Proceed sleep -> proceed sleep)
  in
  go config0 histories0 depth0 rpath0 []

(* Specialized arena walk for the naive mode (no dedup, no POR, no
   lockstep shadow): the traversal needs no move lists, no sleep sets
   and no decision accumulation, so the whole DFS runs allocation-free
   on the machine's memoized hot path — with or without callbacks.
   Hooks observe each leaf through a flat [Config_view]: the usual
   checker reads (statuses, decisions, steps, store state) are O(1)
   array reads on the live machine, and only a hook that actually asks
   for the trace or the decision path pays, by replaying the walker's
   recorded move path from this item's root configuration.  Same
   traversal order and counters as [explore_seq]; that equality is
   what the cross-backend tests pin down. *)
let explore_arena_naive ~opts ~acc ?tick ~analyze ~on_terminal
    ~on_truncated (config0, _histories0, depth0, rpath0) =
  let m = Engine.Machine.of_config config0 in
  (* [ws] starts from the shared accumulator so the tick cadence
     ([a_configs land 8191]) is unchanged. *)
  let ws =
    {
      Engine.Machine.w_configs = acc.a_configs;
      w_terminals = acc.a_terminals;
      w_truncated = acc.a_truncated;
      w_max_depth = acc.a_max_depth;
      w_choice_points = acc.a_choice_points;
    }
  in
  let sync (ws : Engine.Machine.walk_stats) =
    acc.a_configs <- ws.Engine.Machine.w_configs;
    acc.a_terminals <- ws.Engine.Machine.w_terminals;
    acc.a_truncated <- ws.Engine.Machine.w_truncated;
    acc.a_max_depth <- ws.Engine.Machine.w_max_depth;
    acc.a_choice_points <- ws.Engine.Machine.w_choice_points
  in
  let tick =
    match tick with
    | None -> None
    | Some f ->
      Some
        (fun ws ->
          sync ws;
          f acc)
  in
  (* [~finally]: a hook may abort the walk ([check_all] raises
     [Stop_exploration] on the first violation); the counters walked so
     far still belong in the accumulator. *)
  Fun.protect
    ~finally:(fun () -> sync ws)
    (fun () ->
      match (analyze, on_terminal, on_truncated) with
      | None, None, None ->
        (* Counting-only walk: hand the whole enumeration to the
           machine's journal-free hot path. *)
        Engine.Machine.walk_naive ?tick ~crash_faults:opts.o_crash_faults
          ~max_steps:opts.o_max_steps ~depth0 ws m
      | _ ->
        let path = Array.make (opts.o_max_steps + Engine.Machine.n_procs m + 2) 0 in
        let mc_now = ref 0 in
        (* Both thunks read [path.(0 .. !mc_now - 1)], the move path of
           the leaf whose hook is currently running; they are only
           valid for the duration of that hook call (the same borrow
           discipline as the view itself). *)
        let decisions () =
          let ds = ref rpath0 in
          for i = 0 to !mc_now - 1 do
            let mv = Array.unsafe_get path i in
            ds :=
              (if mv >= 0 then Repro.Step mv else Repro.Crash (-mv - 1))
              :: !ds
          done;
          !ds
        in
        let replay () =
          let cfg = ref config0 in
          for i = 0 to !mc_now - 1 do
            let mv = Array.unsafe_get path i in
            cfg :=
              (if mv >= 0 then Engine.step !cfg mv
               else Engine.crash !cfg (-mv - 1))
          done;
          !cfg
        in
        let on_terminal_mc mc =
          match (analyze, on_terminal) with
          | None, None -> ()
          | _ ->
            mc_now := mc;
            (* One view per terminal, shared by both hooks, so the
               soundness guard sees every access the leaf performed. *)
            let view = Engine.Config_view.of_machine_flat m ~replay in
            (match analyze with None -> () | Some f -> f view decisions);
            (match on_terminal with None -> () | Some f -> f view decisions)
        in
        let on_truncated_mc mc =
          match on_truncated with
          | None -> ()
          | Some f ->
            mc_now := mc;
            f (Engine.Config_view.of_machine_flat m ~replay) decisions
        in
        Engine.Machine.walk_naive_checked ?tick
          ~crash_faults:opts.o_crash_faults ~max_steps:opts.o_max_steps
          ~depth0 ~path ~on_terminal:on_terminal_mc
          ~on_truncated:on_truncated_mc ws m);
  m

(* Reduced exploration (dedup and/or sleep-set POR) journal-free on the
   machine's flat arrays.  Per-move undo lives in a stack of reusable
   [Machine.frame]s — memo-hit steps bypass the journal entirely and
   crashes are unjournaled status flips.  Sleep sets are int bitsets
   ([Step_m p] at bit [p], [Crash_m p] at bit [n + p]; dispatch
   guarantees [2n <= 62]), and the dedup key is assembled from the
   incrementally maintained fingerprint sums, so no [Machine.config],
   no move list and no sleep list is ever materialized on the hot
   path.  Leaf hooks observe the machine through the same flat view as
   the naive checked walk, replaying the recorded move path on demand.

   Fidelity: traversal order (pids ascending, step before crash, crash
   at the same depth), counter cadence (including the [a_por_checks] /
   [a_fast] increments per sleep-set candidate — explored and sleep
   sets are disjoint, so bit iteration visits exactly the candidates
   the reference's list filter does), dedup actions and the
   caching-discipline subset/intersection tests all mirror
   [explore_seq] exactly; the cross-backend digest tests pin this. *)
let explore_arena_reduced ~opts ~acc ?tick ~visited ~analyze ~on_terminal
    ~on_truncated (config0, histories0, depth0, rpath0) =
  let m = Engine.Machine.of_config config0 in
  let n = Engine.Machine.n_procs m in
  let histories = Array.copy histories0 in
  let store_sum = ref 0 and proc_sum = ref 0 in
  (* Per-walk fingerprint plumbing: histories are extended through a
     hash-consing table so re-derived spines stay physically shared
     (visited-set hits then compare by pointer), and each location's
     [store_binding_hash] string prefix is precomputed per arena slot so
     a step's store delta is two value folds, no string walks. *)
  let hc = Fingerprint.hcons_create 1024 in
  (* One-entry per-pid extension cache in front of [hc]: right after
     backtracking, a sibling branch re-extends the same (physical) tail
     with the same memoized event blocks, so even the consing probe's
     hashing is skippable.  Physical-only compares — a false miss just
     falls through to [hc], which guarantees the canonical block. *)
  let ext_tl = Array.make n Fingerprint.history_empty in
  let ext_loc = Array.make n "" in
  let ext_op = Array.make n Memory.Value.Unit in
  let ext_result = Array.make n Memory.Value.Unit in
  let ext_ev = Array.make n Fingerprint.history_empty in
  let extend pid tl ~loc ~op ~result =
    if
      ext_tl.(pid) == tl
      && ext_loc.(pid) == loc
      && ext_op.(pid) == op
      && ext_result.(pid) == result
    then ext_ev.(pid)
    else begin
      let ev = Fingerprint.history_extend_hc hc tl ~loc ~op ~result in
      ext_tl.(pid) <- tl;
      ext_loc.(pid) <- loc;
      ext_op.(pid) <- op;
      ext_result.(pid) <- result;
      ext_ev.(pid) <- ev;
      ev
    end
  in
  let seeds =
    if opts.o_dedup then
      Array.of_list
        (List.map
           (fun (l, _) -> Fingerprint.store_seed l)
           (Engine.Machine.state_bindings m))
    else [||]
  in
  (if opts.o_dedup then begin
     let s, p = Fingerprint.sums config0 histories0 in
     store_sum := s;
     proc_sum := p
   end);
  (* Move path + per-move frames: [mc] indexes both.  At most
     [max_steps] step moves plus one crash per process on any branch. *)
  let slots = opts.o_max_steps + n + 2 in
  let path = Array.make slots 0 in
  (* Frames grow with the deepest branch actually reached, not with the
     [max_steps] bound — a frame per *live* move, reused across
     siblings at the same stack depth. *)
  let frames = ref (Array.init 64 (fun _ -> Engine.Machine.frame ())) in
  let frame_at mc =
    let fa = !frames in
    let len = Array.length fa in
    if mc < len then Array.unsafe_get fa mc
    else begin
      let fa' =
        Array.init
          (min slots (max (2 * len) (mc + 1)))
          (fun i -> if i < len then fa.(i) else Engine.Machine.frame ())
      in
      frames := fa';
      fa'.(mc)
    end
  in
  let mc_now = ref 0 in
  (* Hook thunks, as in [explore_arena_naive]: valid only while the
     hook runs, reconstruct the schedule from [path.(0 .. !mc_now-1)]. *)
  let decisions () =
    let ds = ref rpath0 in
    for i = 0 to !mc_now - 1 do
      let mv = Array.unsafe_get path i in
      ds := (if mv >= 0 then Repro.Step mv else Repro.Crash (-mv - 1)) :: !ds
    done;
    !ds
  in
  let replay () =
    let cfg = ref config0 in
    for i = 0 to !mc_now - 1 do
      let mv = Array.unsafe_get path i in
      cfg :=
        (if mv >= 0 then Engine.step !cfg mv else Engine.crash !cfg (-mv - 1))
    done;
    !cfg
  in
  (* Sleep-set filter for the child of taken move [(q, q_crash)]: keep
     each candidate bit of [cand] that is independent of the move, with
     the static fast matrix consulted first — the same per-candidate
     check (and counter increments) as the reference's list filter.
     [accs] holds every process's pending access in the {e parent}
     state, encoded by {!Engine.Machine.access_enc} — each expansion
     snapshots them once (recursion builds its own for deeper levels),
     so the exact check is two array reads and integer compares per
     candidate, no program-counter decode, no string walk. *)
  let child_sleep_of accs cand q q_crash =
    let tok = Lepower_prof.Phase.enter ph_por in
    let kept = ref 0 in
    for b = 0 to (2 * n) - 1 do
      if cand land (1 lsl b) <> 0 then begin
        acc.a_por_checks <- acc.a_por_checks + 1;
        let p = if b < n then b else b - n in
        let keep =
          match opts.o_fast with
          | Some fast
            when p <> q
                 && p < Array.length fast
                 && q < Array.length fast
                 && fast.(p).(q) ->
            acc.a_fast <- acc.a_fast + 1;
            true
          | _ ->
            p <> q
            && (b >= n || q_crash
               ||
               let ep = Array.unsafe_get accs p
               and eq = Array.unsafe_get accs q in
               if ep = -1 || eq = -1 then true
               else if ep >= 0 && eq >= 0 then
                 ep lsr 1 <> eq lsr 1 || ep land eq land 1 = 1
               else
                 (* an un-interned location: compare by name *)
                 match
                   (Engine.Machine.access m p, Engine.Machine.access m q)
                 with
                 | None, _ | _, None -> true
                 | Some (l1, r1), Some (l2, r2) ->
                   (not (String.equal l1 l2)) || (r1 && r2))
        in
        if keep then kept := !kept lor (1 lsl b)
      end
    done;
    Lepower_prof.Phase.leave tok;
    !kept
  in
  let rec go depth mc running sleep =
    if depth > acc.a_max_depth then acc.a_max_depth <- depth;
    let leaf = running = 0 || depth >= opts.o_max_steps in
    let proceed sleep =
      acc.a_configs <- acc.a_configs + 1;
      if acc.a_configs land 8191 = 0 then
        (match tick with Some f -> f acc | None -> ());
      if running = 0 then begin
        match (analyze, on_terminal) with
        | None, None -> acc.a_terminals <- acc.a_terminals + 1
        | _ ->
          mc_now := mc;
          (* One view per terminal, shared by both hooks, so the
             soundness guard sees every access the leaf performed. *)
          let view = Engine.Config_view.of_machine_flat m ~replay in
          (match analyze with None -> () | Some f -> f view decisions);
          acc.a_terminals <- acc.a_terminals + 1;
          (match on_terminal with None -> () | Some f -> f view decisions)
      end
      else if depth >= opts.o_max_steps then begin
        acc.a_truncated <- acc.a_truncated + 1;
        match on_truncated with
        | None -> ()
        | Some f ->
          mc_now := mc;
          f (Engine.Config_view.of_machine_flat m ~replay) decisions
      end
      else begin
        if running >= 2 || opts.o_crash_faults then
          acc.a_choice_points <- acc.a_choice_points + 1;
        let accs =
          if opts.o_por then Array.init n (Engine.Machine.access_enc m)
          else [||]
        in
        let explored = ref 0 in
        for pid = 0 to n - 1 do
          if Engine.Machine.is_running m pid then begin
            (if sleep land (1 lsl pid) <> 0 then
               acc.a_pruned <- acc.a_pruned + 1
             else begin
               let child_sleep =
                 if opts.o_por then
                   child_sleep_of accs (!explored lor sleep) pid false
                 else 0
               in
               let f = frame_at mc in
               let saved_hist = histories.(pid) in
               let saved_ssum = !store_sum and saved_psum = !proc_sum in
               Engine.Machine.step_frame m pid f;
               (if opts.o_dedup then begin
                  (if Engine.Machine.frame_step_event m f then begin
                     let loc = Engine.Machine.frame_loc m f in
                     let seed = seeds.(Engine.Machine.frame_loc_id m f) in
                     histories.(pid) <-
                       extend pid histories.(pid) ~loc
                         ~op:(Engine.Machine.frame_op m f)
                         ~result:(Engine.Machine.frame_result m f);
                     store_sum :=
                       !store_sum
                       - Memory.Value.hash_fold seed
                           (Engine.Machine.frame_old_state m f)
                       + Memory.Value.hash_fold seed
                           (Engine.Machine.frame_new_state m f)
                   end);
                  proc_sum :=
                    !proc_sum
                    - Fingerprint.proc_hash ~pid Proc.Running saved_hist
                    + Fingerprint.proc_hash ~pid
                        (Engine.Machine.status m pid)
                        histories.(pid)
                end);
               Array.unsafe_set path mc pid;
               go (depth + 1) (mc + 1)
                 (if Engine.Machine.is_running m pid then running
                  else running - 1)
                 child_sleep;
               Engine.Machine.undo_frame m f;
               histories.(pid) <- saved_hist;
               store_sum := saved_ssum;
               proc_sum := saved_psum;
               if opts.o_por then explored := !explored lor (1 lsl pid)
             end);
            if opts.o_crash_faults then begin
              if sleep land (1 lsl (n + pid)) <> 0 then
                acc.a_pruned <- acc.a_pruned + 1
              else begin
                let child_sleep =
                  if opts.o_por then
                    child_sleep_of accs (!explored lor sleep) pid true
                  else 0
                in
                let saved_psum = !proc_sum in
                Engine.Machine.crash_frame m pid;
                (if opts.o_dedup then
                   proc_sum :=
                     !proc_sum
                     - Fingerprint.proc_hash ~pid Proc.Running histories.(pid)
                     + Fingerprint.proc_hash ~pid Proc.Crashed histories.(pid));
                Array.unsafe_set path mc (-pid - 1);
                go depth (mc + 1) (running - 1) child_sleep;
                Engine.Machine.uncrash_frame m pid;
                proc_sum := saved_psum;
                if opts.o_por then explored := !explored lor (1 lsl (n + pid))
              end
            end
          end
        done
      end
    in
    match visited with
    | None -> proceed sleep
    | Some tbl -> (
      let tok = Lepower_prof.Phase.enter ph_fingerprint in
      let action =
        let h =
          Fingerprint.combine ~store_sum:!store_sum ~proc_sum:!proc_sum
        in
        match rtbl_find tbl m histories h with
        | None ->
          rtbl_add tbl m histories h (if leaf then 0 else sleep);
          `Proceed sleep
        | Some e when leaf || e.re_sleep land lnot sleep = 0 -> `Dedup
        | Some e ->
          let sleep = sleep land e.re_sleep in
          e.re_sleep <- sleep;
          `Proceed sleep
      in
      Lepower_prof.Phase.leave tok;
      match action with
      | `Dedup -> acc.a_deduped <- acc.a_deduped + 1
      | `Proceed sleep -> proceed sleep)
  in
  let running0 = ref 0 in
  for pid = 0 to n - 1 do
    if Engine.Machine.is_running m pid then incr running0
  done;
  go depth0 0 !running0 0;
  m

(* Walker dispatch for one DFS item — the single worker entry point for
   both the [domains <= 1] path and the frontier workers. *)
let explore_item ~opts ~acc ?tick ~visited ~analyze ~on_terminal
    ~on_truncated ~on_lowering item =
  let lowered m =
    match on_lowering with
    | None -> ()
    | Some f -> f (Engine.Machine.reports m)
  in
  match opts.o_walker with
  | Seq ->
    explore_seq ~opts ~acc ?tick ~visited:(visited_lists visited) ~analyze
      ~on_terminal ~on_truncated item
  | Arena_naive ->
    lowered
      (explore_arena_naive ~opts ~acc ?tick ~analyze ~on_terminal
         ~on_truncated item)
  | Arena_reduced ->
    lowered
      (explore_arena_reduced ~opts ~acc ?tick ~visited:(visited_bits visited)
         ~analyze ~on_terminal ~on_truncated item)

(* ------------------------------------------------------------------ *)
(* Multicore frontier exploration.                                    *)

(* Expand the first few levels of the schedule tree breadth-first (naive:
   no memoization or reduction, so the split is exact) until at least
   [target] roots exist; leaves met on the way are dispatched to the
   callbacks right here in the coordinator.  Returns the frontier in
   deterministic (schedule) order, each root carrying its path prefix. *)
let split_frontier ~opts ~acc ~analyze ~on_terminal ~on_truncated ~target
    config =
  let expand (config, histories, depth, rpath) =
    if depth > acc.a_max_depth then acc.a_max_depth <- depth;
    acc.a_configs <- acc.a_configs + 1;
    match Engine.enabled config with
    | [] ->
      (match (analyze, on_terminal) with
      | None, None -> acc.a_terminals <- acc.a_terminals + 1
      | _ ->
        let view = Engine.Config_view.of_config config in
        let path () = rpath in
        (match analyze with None -> () | Some f -> f view path);
        acc.a_terminals <- acc.a_terminals + 1;
        (match on_terminal with None -> () | Some f -> f view path));
      []
    | _ when depth >= opts.o_max_steps ->
      acc.a_truncated <- acc.a_truncated + 1;
      (match on_truncated with
      | None -> ()
      | Some f -> f (Engine.Config_view.of_config config) (fun () -> rpath));
      []
    | pids ->
      if (match pids with _ :: _ :: _ -> true | _ -> opts.o_crash_faults)
      then acc.a_choice_points <- acc.a_choice_points + 1;
      List.concat_map
        (fun m ->
          let rpath' = decision_of_move m :: rpath in
          match m with
          | Step_m pid ->
            let config', histories' =
              step_with_history opts config histories pid
            in
            [ (config', histories', depth + 1, rpath') ]
          | Crash_m pid -> [ (Engine.crash config pid, histories, depth, rpath') ])
        (moves_of opts pids)
  in
  let rec grow frontier =
    if List.length frontier >= target then frontier
    else
      match List.concat_map expand frontier with
      | [] -> []
      | next -> grow next
  in
  grow [ (config, initial_histories config, 0, []) ]

(* Workers share nothing: each gets every [i mod domains = w]-th frontier
   root (static split, so per-worker work — and therefore every merged
   count — is deterministic), its own visited table, and its own
   accumulator.  User callbacks are serialized through one mutex by the
   caller.  A worker that raises (e.g. [Stop_exploration] out of a
   checking callback) stops early; its exception is re-raised by the
   coordinator after all workers are joined. *)
(* Globally merged running totals for the progress callback: workers
   publish their accumulator deltas with atomic adds each tick, so any
   single reader sees a consistent-enough global count without touching
   the workers' hot state. *)
type pshared = {
  ps_configs : int Atomic.t;
  ps_terminals : int Atomic.t;
  ps_truncated : int Atomic.t;
  ps_deduped : int Atomic.t;
  ps_pruned : int Atomic.t;
  ps_max_depth : int Atomic.t;
}

let pshared_create () =
  {
    ps_configs = Atomic.make 0;
    ps_terminals = Atomic.make 0;
    ps_truncated = Atomic.make 0;
    ps_deduped = Atomic.make 0;
    ps_pruned = Atomic.make 0;
    ps_max_depth = Atomic.make 0;
  }

let pshared_publish ps ~last (wacc : acc) =
  let add cell now prev =
    if now <> prev then ignore (Atomic.fetch_and_add cell (now - prev))
  in
  add ps.ps_configs wacc.a_configs last.a_configs;
  add ps.ps_terminals wacc.a_terminals last.a_terminals;
  add ps.ps_truncated wacc.a_truncated last.a_truncated;
  add ps.ps_deduped wacc.a_deduped last.a_deduped;
  add ps.ps_pruned wacc.a_pruned last.a_pruned;
  let rec bump () =
    let cur = Atomic.get ps.ps_max_depth in
    if
      wacc.a_max_depth > cur
      && not (Atomic.compare_and_set ps.ps_max_depth cur wacc.a_max_depth)
    then bump ()
  in
  bump ();
  acc_merge last wacc;
  (* acc_merge adds; we want a copy of the current state instead. *)
  last.a_terminals <- wacc.a_terminals;
  last.a_truncated <- wacc.a_truncated;
  last.a_max_depth <- wacc.a_max_depth;
  last.a_choice_points <- wacc.a_choice_points;
  last.a_configs <- wacc.a_configs;
  last.a_deduped <- wacc.a_deduped;
  last.a_pruned <- wacc.a_pruned;
  last.a_por_checks <- wacc.a_por_checks;
  last.a_fast <- wacc.a_fast

let pshared_progress ps ~domains =
  {
    p_configs = Atomic.get ps.ps_configs;
    p_terminals = Atomic.get ps.ps_terminals;
    p_truncated = Atomic.get ps.ps_truncated;
    p_deduped = Atomic.get ps.ps_deduped;
    p_pruned = Atomic.get ps.ps_pruned;
    p_max_depth = Atomic.get ps.ps_max_depth;
    p_domains = domains;
  }

let g_frontier = Lepower_obs.Metrics.gauge "explore.frontier.size"

(* Per-domain busy seconds: on an oversubscribed host (fewer cores than
   domains) these sum to well over the coordinator's wall time, which is
   exactly the dom4-slower-than-dom1 signature on 1-core runners. *)
let g_domain_busy w =
  Lepower_obs.Metrics.gauge (Printf.sprintf "explore.domain%d.busy_s" w)

let g_domain_roots w =
  Lepower_obs.Metrics.gauge (Printf.sprintf "explore.domain%d.roots" w)

let run_parallel ~opts ~acc ~domains ~progress ~analyze ~on_terminal
    ~on_truncated ~on_lowering config =
  let frontier =
    let tok = Lepower_prof.Phase.enter ph_frontier in
    let f =
      split_frontier ~opts ~acc ~analyze ~on_terminal ~on_truncated
        ~target:(domains * 4) config
    in
    Lepower_prof.Phase.leave tok;
    f
  in
  Lepower_obs.Metrics.set g_frontier (Float.of_int (List.length frontier));
  match frontier with
  | [] -> 1 (* the whole space fit in the frontier expansion *)
  | _ ->
    let items = Array.of_list frontier in
    let nd = min domains (Array.length items) in
    let ps = pshared_create () in
    let progress_mutex = Mutex.create () in
    let notify () =
      match progress with
      | None -> ()
      | Some f ->
        Mutex.lock progress_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock progress_mutex)
          (fun () -> f (pshared_progress ps ~domains:nd))
    in
    let workers =
      List.init nd (fun w ->
          Domain.spawn (fun () ->
              let t0 = Unix.gettimeofday () in
              let wacc = acc_create () in
              let last = acc_create () in
              let tick wacc =
                pshared_publish ps ~last wacc;
                notify ()
              in
              let tick = if progress = None then None else Some tick in
              let visited = visited_create opts 1024 in
              let failed = ref None in
              let tok = Lepower_prof.Phase.enter ph_walk in
              (try
                 let roots = ref 0 in
                 Array.iteri
                   (fun i item ->
                     if i mod nd = w then begin
                       incr roots;
                       explore_item ~opts ~acc:wacc ?tick ~visited ~analyze
                         ~on_terminal ~on_truncated ~on_lowering item
                     end)
                   items;
                 Lepower_obs.Metrics.set (g_domain_roots w)
                   (Float.of_int !roots)
               with e -> failed := Some e);
              Lepower_prof.Phase.leave tok;
              Lepower_obs.Metrics.set (g_domain_busy w)
                (Unix.gettimeofday () -. t0);
              (wacc, !failed)))
    in
    let results = List.map Domain.join workers in
    List.iter (fun (wacc, _) -> acc_merge acc wacc) results;
    (match List.find_map (fun (_, e) -> e) results with
    | Some e -> raise e
    | None -> ());
    nd

let with_mutex mutex f =
  Option.map
    (fun g config rpath ->
      Mutex.lock mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mutex)
        (fun () -> g config rpath))
    f

(* Adapt a public [Engine.Config_view.t -> unit] callback to the
   internal path-carrying shape. *)
let drop_path f = Option.map (fun g view _rpath -> g view) f

(* ------------------------------------------------------------------ *)
(* Public entry points.                                               *)

(* [serialize]: wrap the callbacks in the mutex when running on several
   domains.  The public [explore] always serializes (arbitrary user
   callbacks); [check_all] opts out for its own pure predicate — locking
   around every terminal would serialize the whole search — and wraps
   only what actually needs it (the analyze hook, failure recording). *)
let explore_inner ~serialize ~(options : Options.t) ~analyze ~on_terminal
    ~on_truncated config =
  let opts = opts_of options ~n_procs:(Array.length config.Engine.procs) in
  let domains = options.Options.domains in
  (* The lowering report fires once per DFS item, not per configuration,
     so a mutex around it is cheap even on the hottest runs. *)
  let on_lowering =
    match options.Options.on_lowering with
    | None -> None
    | Some f when domains <= 1 -> Some f
    | Some f ->
      let mutex = Mutex.create () in
      Some
        (fun reports ->
          Mutex.lock mutex;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock mutex)
            (fun () -> f reports))
  in
  let acc = acc_create () in
  let finish domains_used =
    (* Counters maintained once, from the merged totals, so they stay
       deterministic and race-free even under domain parallelism. *)
    Lepower_obs.Metrics.incr m_configs ~by:acc.a_configs;
    Lepower_obs.Metrics.incr m_choice_points ~by:acc.a_choice_points;
    Lepower_obs.Metrics.incr m_terminals ~by:acc.a_terminals;
    Lepower_obs.Metrics.incr m_truncated ~by:acc.a_truncated;
    Lepower_obs.Metrics.incr m_deduped ~by:acc.a_deduped;
    Lepower_obs.Metrics.incr m_por_pruned ~by:acc.a_pruned;
    Lepower_obs.Metrics.incr m_por_checks ~by:acc.a_por_checks;
    Lepower_obs.Metrics.incr m_por_fast_hits ~by:acc.a_fast;
    {
      terminals = acc.a_terminals;
      truncated = acc.a_truncated;
      max_depth = acc.a_max_depth;
      choice_points = acc.a_choice_points;
      configs_visited = acc.a_configs;
      configs_deduped = acc.a_deduped;
      por_pruned = acc.a_pruned;
      por_checks = acc.a_por_checks;
      por_fast_hits = acc.a_fast;
      domains_used;
    }
  in
  let domains_used =
    Lepower_obs.Span.with_span "explore.explore"
      ~args:
        [
          ("max_steps", Lepower_obs.Json.Int opts.o_max_steps);
          ("dedup", Lepower_obs.Json.Bool opts.o_dedup);
          ("por", Lepower_obs.Json.Bool opts.o_por);
          ("domains", Lepower_obs.Json.Int domains);
        ]
      (fun () ->
        let progress = options.Options.progress in
        if domains <= 1 then begin
          let visited = visited_create opts 4096 in
          let tick =
            Option.map
              (fun f (acc : acc) ->
                f
                  {
                    p_configs = acc.a_configs;
                    p_terminals = acc.a_terminals;
                    p_truncated = acc.a_truncated;
                    p_deduped = acc.a_deduped;
                    p_pruned = acc.a_pruned;
                    p_max_depth = acc.a_max_depth;
                    p_domains = 1;
                  })
              progress
          in
          let tok = Lepower_prof.Phase.enter ph_walk in
          explore_item ~opts ~acc ?tick ~visited ~analyze ~on_terminal
            ~on_truncated ~on_lowering
            (config, initial_histories config, 0, []);
          Lepower_prof.Phase.leave tok;
          1
        end
        else if serialize then begin
          let mutex = Mutex.create () in
          run_parallel ~opts ~acc ~domains ~progress
            ~analyze:(with_mutex mutex analyze)
            ~on_terminal:(with_mutex mutex on_terminal)
            ~on_truncated:(with_mutex mutex on_truncated)
            ~on_lowering config
        end
        else
          run_parallel ~opts ~acc ~domains ~progress ~analyze ~on_terminal
            ~on_truncated ~on_lowering config)
  in
  finish domains_used

let explore ?(options = Options.default) config =
  explore_inner ~serialize:true ~options
    ~analyze:(drop_path options.Options.analyze)
    ~on_terminal:(drop_path options.Options.on_terminal)
    ~on_truncated:(drop_path options.Options.on_truncated)
    config

type violation = {
  trace : Trace.t;
  message : string;
  decisions : Repro.decision list;
}

exception Unsound_predicate of string

let unsound_message =
  "Explore.check_all: the predicate (or analyze hook) inspected the global \
   trace order (Config_view.trace / last_event / config) on a satisfying \
   terminal while dedup or por was enabled; the reductions only preserve \
   trace-order-insensitive properties, so the verdict would be unsound. \
   Disable dedup/por, or restate the predicate with order-insensitive \
   accessors (statuses, decisions, steps, store_state, events_of)."

let check_all_gen ~guard ~(options : Options.t) config predicate =
  (* The predicate is a pure function of the view, so under domain
     parallelism it runs concurrently in the workers with no lock — a
     per-terminal mutex would serialize the entire search.  Only the
     two effectful spots synchronize: recording the first violation, and
     the caller's [analyze] hook (arbitrary user code). *)
  let mutex = Mutex.create () in
  let failure = ref None in
  let record view path message =
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        if !failure = None then
          failure :=
            Some
              {
                trace = Engine.Config_view.trace view;
                message;
                decisions = List.rev (path ());
              });
    raise Stop_exploration
  in
  (* Soundness guard: dedup/POR explore one representative per
     commutation class, so a verdict is only transferable to the pruned
     interleavings when the predicate never looked at the global order.
     A violation is exempt — its witness schedule is genuinely executed
     — so the guard fires only on satisfying terminals. *)
  let guard_order =
    guard && (options.Options.dedup || options.Options.por)
  in
  let on_terminal view path =
    match predicate view with
    | Ok () ->
      if guard_order && Engine.Config_view.order_accessed view then
        raise (Unsound_predicate unsound_message)
    | Error message -> record view path message
  in
  let on_truncated view path =
    (* The truncated schedule is the whole diagnostic: say where the
       execution was cut off and what it was doing, not just that it
       happened. *)
    let depth = Engine.Config_view.trace_length view in
    let message =
      match Engine.Config_view.last_event view with
      | None -> "execution exceeded the step bound before any shared-memory op"
      | Some last ->
        Fmt.str
          "execution exceeded the step bound at depth %d (possible \
           livelock); last event: %a"
          depth Trace.pp_event last
    in
    record view path message
  in
  match
    explore_inner ~serialize:false ~options
      ~analyze:(with_mutex mutex (drop_path options.Options.analyze))
      ~on_terminal:(Some on_terminal) ~on_truncated:(Some on_truncated) config
  with
  | stats -> Ok stats
  | exception Stop_exploration -> (
    match !failure with
    | Some v -> Error v
    | None -> assert false)

let check_all ?(options = Options.default) config predicate =
  check_all_gen ~guard:true ~options config predicate

module Vtbl = Hashtbl.Make (struct
  type t = Memory.Value.t

  let equal = Memory.Value.equal
  let hash = Memory.Value.hash
end)

let decision_sets ?(options = Options.default) config =
  (* Keyed by the canonical (sorted) decision multiset in a hash table:
     O(1) per terminal instead of a comparison against every set seen so
     far.  The result stays the documented sorted list of sorted lists. *)
  let sets = Vtbl.create 64 in
  let on_terminal view _rpath =
    let ds =
      Engine.Config_view.decision_values view
      |> List.sort Memory.Value.compare
    in
    let key = Memory.Value.List ds in
    if not (Vtbl.mem sets key) then Vtbl.add sets key ds;
    match options.Options.on_terminal with None -> () | Some f -> f view
  in
  ignore
    (explore_inner ~serialize:true ~options
       ~analyze:(drop_path options.Options.analyze)
       ~on_terminal:(Some on_terminal)
       ~on_truncated:(drop_path options.Options.on_truncated)
       config);
  Vtbl.fold (fun _ ds acc -> ds :: acc) sets []
  |> List.sort (List.compare Memory.Value.compare)
