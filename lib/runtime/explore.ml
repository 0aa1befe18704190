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

(* Intern tables of the reduced walk's visited table.  States and
   decided values compare by [Value.equal], physical identity first:
   memoized transitions reinstall the same value blocks.  Histories
   compare structurally by [Fingerprint.history_equal], whose identity
   shortcut makes the usual lookup of a hash-consed history a pointer
   check. *)
module Vtbl = Hashtbl.Make (struct
  type t = Memory.Value.t

  let equal a b = a == b || Memory.Value.equal a b
  let hash = Memory.Value.hash
end)

module Htbl = Hashtbl.Make (struct
  type t = Fingerprint.history

  let equal = Fingerprint.history_equal
  let hash = Fingerprint.history_hash
end)

(* The reduced arena walk's visited table: open addressing over
   fixed-width int keys.  A configuration's key has [W = L + n] words:
   one interned state id per arena slot, then one word per process
   packing its status code, an interned payload id (decided value or
   fault message) and an interned history id.  Key equality makes
   exactly the distinctions [Fingerprint.equal] makes — the arena
   layout is fixed within an exploration, so slot [i] always names the
   same location, and each id stands for one class of the equality
   [Fingerprint.equal] applies to that component.  A hit is decided by
   comparing whole keys, so hit/miss decisions, and with them every
   stat, are the reference walk's whatever the hash ({!key_hash}); the
   hash only places an entry in the index.

   Neither the key store nor the index holds a pointer.  Keys sit in
   fixed-size int-array chunks that are never doubled and copied, each
   entry its stored sleep bitset followed by its [W] key words; the
   index is an int array probed linearly at load <= 1/2, one word per
   slot: the entry number plus one ([0]: free slot) in the low
   [entry_bits] bits, the hash's low 32 bits above them, so a probe
   reads a chunk only on a 32-bit hash match and a resize needs no
   key.  A probe is [W] int compares against one contiguous block and
   an insert is one blit; neither allocates (an insert starts a new
   chunk every 1024 entries and doubles the index at half load), and
   the GC neither promotes nor scans an entry.

   The intern tables belong to the table, and a table serves exactly
   one walk: a run with dedup makes one walk, from the root, on one
   worker.  An id therefore only has to name one class of
   [Fingerprint.equal]'s equality within that walk. *)
type ktbl = {
  k_width : int;  (** [W] *)
  mutable k_chunks : int array array;  (** [[||]]: chunk not allocated *)
  mutable k_count : int;
  mutable k_index : int array;
  k_values : int Vtbl.t;  (** store states and decided values *)
  k_faults : (string, int) Hashtbl.t;
  k_hists : int Htbl.t;
}

let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let entry_bits = 31
let entry_mask = (1 lsl entry_bits) - 1
let tag_mask = (1 lsl 32) - 1

(* A process word: status code in bits 0-1, payload id in bits 2-23,
   history id above.  Ids are dense from 0; an id that outgrows its
   field fails loudly instead of colliding. *)
let code_crashed = 1
let code_decided = 2
let code_faulty = 3
let payload_shift = 2
let hist_shift = 24
let max_payload = 1 lsl (hist_shift - payload_shift)
let max_hist = 1 lsl (Sys.int_size - 1 - hist_shift)

let ktbl_create width =
  {
    k_width = width;
    k_chunks = [||];
    k_count = 0;
    k_index = Array.make 1024 0;
    k_values = Vtbl.create 64;
    k_faults = Hashtbl.create 8;
    k_hists = Htbl.create 256;
  }

let field_overflow what limit =
  failwith
    (Printf.sprintf
       "Explore: more than %d distinct %s in one visited table; the key \
        field for them is full"
       limit what)

let value_id t v =
  match Vtbl.find t.k_values v with
  | id -> id
  | exception Not_found ->
    let id = Vtbl.length t.k_values in
    Vtbl.add t.k_values v id;
    id

let fault_id t msg =
  match Hashtbl.find t.k_faults msg with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length t.k_faults in
    Hashtbl.add t.k_faults msg id;
    id

let hist_id t h =
  match Htbl.find t.k_hists h with
  | id -> id
  | exception Not_found ->
    let id = Htbl.length t.k_hists in
    if id >= max_hist then field_overflow "process histories" max_hist;
    Htbl.add t.k_hists h id;
    id

let payload id =
  if id >= max_payload then
    field_overflow "decided values, states or fault messages" max_payload;
  id lsl payload_shift

let proc_word t (status : Proc.status) hid =
  let base = hid lsl hist_shift in
  match status with
  | Proc.Running -> base
  | Proc.Crashed -> base lor code_crashed
  | Proc.Decided v -> base lor payload (value_id t v) lor code_decided
  | Proc.Faulty msg -> base lor payload (fault_id t msg) lor code_faulty

(* One multiply-xor pass over the key's words, then a finalizer.  The
   index takes its home slot and tag from the low 32 bits, and those
   bits of the pass depend only on the low 32 bits of each word, so
   the finalizer folds the high bits (history ids sit at bit 24 and
   up) into them before a last multiply and fold. *)
let key_hash key =
  let h = ref 0 in
  for i = 0 to Array.length key - 1 do
    h := (!h lxor Array.unsafe_get key i) * 0x3f58476d1ce4e5b9
  done;
  let h = (!h lxor (!h lsr 31)) * 0x14d049bb133111eb in
  h lxor (h lsr 32)

(* Entry number of [key] (hash [h]), or [-1]. *)
let ktbl_find t key h =
  let idx = t.k_index and w = t.k_width in
  let mask = Array.length idx - 1 and tag = h land tag_mask in
  let want = tag lsl entry_bits in
  let rec probe s =
    let x = idx.(s) in
    if x = 0 then -1
    else
      let e = (x land entry_mask) - 1 in
      if
        x land lnot entry_mask = want
        &&
        let c = t.k_chunks.(e lsr chunk_bits)
        and off = ((e land chunk_mask) * (w + 1)) + 1 in
        (* in bounds: [key] has [W] words and every entry [W + 1] *)
        let rec same i =
          i >= w
          || (Array.unsafe_get c (off + i) = Array.unsafe_get key i
             && same (i + 1))
        in
        same 0
      then e
      else probe ((s + 1) land mask)
  in
  probe (tag land mask)

let ktbl_sleep t e =
  t.k_chunks.(e lsr chunk_bits).((e land chunk_mask) * (t.k_width + 1))

let ktbl_set_sleep t e sleep =
  t.k_chunks.(e lsr chunk_bits).((e land chunk_mask) * (t.k_width + 1)) <-
    sleep

(* [x]: an index word, whose tag bits pick its home slot. *)
let index_insert idx x =
  let mask = Array.length idx - 1 in
  let rec go s =
    if idx.(s) = 0 then idx.(s) <- x else go ((s + 1) land mask)
  in
  go ((x lsr entry_bits) land mask)

let ktbl_add t key h sleep =
  let stride = t.k_width + 1 and e = t.k_count in
  if e >= entry_mask then field_overflow "configurations" entry_mask;
  let c = e lsr chunk_bits in
  (if c = Array.length t.k_chunks then begin
     let cs = Array.make (max 8 (2 * c)) [||] in
     Array.blit t.k_chunks 0 cs 0 c;
     t.k_chunks <- cs
   end);
  if Array.length t.k_chunks.(c) = 0 then
    t.k_chunks.(c) <- Array.make ((chunk_mask + 1) * stride) 0;
  let chunk = t.k_chunks.(c) and off = (e land chunk_mask) * stride in
  chunk.(off) <- sleep;
  Array.blit key 0 chunk (off + 1) t.k_width;
  t.k_count <- e + 1;
  (if 2 * t.k_count > Array.length t.k_index then begin
     let idx = t.k_index in
     let idx' = Array.make (2 * Array.length idx) 0 in
     Array.iter (fun x -> if x <> 0 then index_insert idx' x) idx;
     t.k_index <- idx'
   end);
  index_insert t.k_index (((h land tag_mask) lsl entry_bits) lor (e + 1))

(* Heap footprint in bytes: the key chunks, the index, and the intern
   tables — their buckets, their bindings and the history cells they
   keep alive.  Interned state and decision values are shared with the
   machine's transition memos and are not counted. *)
let ktbl_bytes t =
  let block len = len + 1 in
  let chunks =
    Array.fold_left
      (fun acc c ->
        if Array.length c = 0 then acc else acc + block (Array.length c))
      (block (Array.length t.k_chunks))
      t.k_chunks
  in
  let interned ~buckets ~bindings = block buckets + (4 * bindings) in
  let words =
    block 7 + chunks
    + block (Array.length t.k_index)
    + interned
        ~buckets:(Vtbl.stats t.k_values).Hashtbl.num_buckets
        ~bindings:(Vtbl.length t.k_values)
    + interned
        ~buckets:(Hashtbl.stats t.k_faults).Hashtbl.num_buckets
        ~bindings:(Hashtbl.length t.k_faults)
    + interned
        ~buckets:(Htbl.stats t.k_hists).Hashtbl.num_buckets
        ~bindings:(Htbl.length t.k_hists)
    + (6 * Htbl.length t.k_hists)
  in
  words * (Sys.word_size / 8)

let g_visited_entries = Lepower_obs.Metrics.gauge "explore.visited.entries"
let g_visited_bytes = Lepower_obs.Metrics.gauge "explore.visited.bytes"

(* Size of the reduced arena walk's visited table: set once per
   exploration, never per probe. *)
let record_visited t =
  if Lepower_obs.Metrics.is_enabled () then begin
    Lepower_obs.Metrics.set g_visited_entries (Float.of_int t.k_count);
    Lepower_obs.Metrics.set g_visited_bytes (Float.of_int (ktbl_bytes t))
  end

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
(* Leaves.                                                            *)

(* The leaf hooks in the shape every walker calls them: the leaf's view
   and a thunk for its root-to-leaf decisions, newest first. *)
type hook =
  (Engine.Config_view.t -> (unit -> Repro.decision list) -> unit) option

type hooks = { h_terminal : hook; h_truncated : hook }

(* Every walker's leaf ends here, once the walker has counted it: a
   terminal ([terminal]) or a step-bound truncation goes to its hook,
   and the view is built only when that hook is set. *)
let on_leaf hooks ~terminal view path =
  match if terminal then hooks.h_terminal else hooks.h_truncated with
  | None -> ()
  | Some f -> f (view ()) path

(* A leaf of the persistent walkers, which carry the configuration and
   its path. *)
let config_leaf hooks ~terminal config rpath =
  on_leaf hooks ~terminal
    (fun () -> Engine.Config_view.of_config config)
    (fun () -> rpath)

(* The leaves of an arena walk over machine [m], lowered from [config0],
   whose own path from the exploration root is [rpath0].  The walk names
   a leaf by its move path [path.(0 .. mc-1)], a step of [p] as [p] and a
   crash as [-p-1].  The hook sees a flat view of the live machine that
   replays the moves only when a trace-shaped accessor asks, and a
   decisions thunk; both read the path, so both are valid only while the
   hook runs. *)
let arena_leaves hooks m config0 rpath0 =
  let path = ref [||] and mc = ref 0 in
  let decisions () =
    let ds = ref rpath0 in
    for i = 0 to !mc - 1 do
      let mv = !path.(i) in
      ds := (if mv >= 0 then Repro.Step mv else Repro.Crash (-mv - 1)) :: !ds
    done;
    !ds
  in
  let replay () =
    let cfg = ref config0 in
    for i = 0 to !mc - 1 do
      let mv = !path.(i) in
      cfg :=
        (if mv >= 0 then Engine.step !cfg mv else Engine.crash !cfg (-mv - 1))
    done;
    !cfg
  in
  let view () = Engine.Config_view.of_machine_flat m ~replay in
  fun ~terminal p c ->
    (* the walk's path only changes when it grows: skip the barrier *)
    if p != !path then path := p;
    mc := c;
    on_leaf hooks ~terminal view decisions

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

(* A walk with dedup starts only at the exploration root (reduced runs
   take one worker), so its histories start empty; a naive walk from a
   frontier item never reads them. *)
let explore_seq ~opts ~acc ?tick ~hooks (config0, depth0, rpath0) =
  let visited =
    if opts.o_dedup then Some (Fingerprint.Tbl.create 4096) else None
  in
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
        acc.a_terminals <- acc.a_terminals + 1;
        config_leaf hooks ~terminal:true config rpath
      | _ when depth >= opts.o_max_steps ->
        acc.a_truncated <- acc.a_truncated + 1;
        config_leaf hooks ~terminal:false config rpath
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
  go config0
    (Array.make (Array.length config0.Engine.procs) Fingerprint.history_empty)
    depth0 rpath0 []

(* Specialized arena walk for the naive mode (no dedup, no POR): the
   traversal needs no move lists, no sleep sets and no decision
   accumulation, so the machine's allocation-free memoized walk runs the
   whole DFS, with or without hooks.  Hooks observe each leaf through
   [arena_leaves]: the usual checker reads (statuses, decisions, steps,
   store state) are O(1) array reads on the live machine, and only a
   hook that actually asks for the trace or the decision path pays, by
   replaying the walk's move path from this item's root configuration.
   Same traversal order and counters as [explore_seq]; that equality is
   what the cross-backend tests pin down. *)
let explore_arena_naive ~opts ~acc ?tick ~hooks (config0, depth0, rpath0) =
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
    Option.map
      (fun f ws ->
        sync ws;
        f acc)
      tick
  in
  let at_leaf = arena_leaves hooks m config0 rpath0 in
  let hook ~terminal h = Option.map (fun _ -> at_leaf ~terminal) h in
  (* [~finally]: a hook may abort the walk ([check_all] raises
     [Stop_exploration] on the first violation); the counters walked so
     far still belong in the accumulator. *)
  Fun.protect
    ~finally:(fun () -> sync ws)
    (fun () ->
      Engine.Machine.walk_naive ?tick
        ?on_terminal:(hook ~terminal:true hooks.h_terminal)
        ?on_truncated:(hook ~terminal:false hooks.h_truncated)
        ~crash_faults:opts.o_crash_faults ~max_steps:opts.o_max_steps ~depth0
        ws m);
  m

(* Reduced exploration (dedup and/or sleep-set POR) journal-free on the
   machine's flat arrays.  Per-move undo lives in a stack of reusable
   [Machine.frame]s — memo-hit steps bypass the journal entirely and
   crashes are unjournaled status flips.  Sleep sets are int bitsets
   ([Step_m p] at bit [p], [Crash_m p] at bit [n + p]; dispatch
   guarantees [2n <= 62]).  The dedup key is a live int array updated
   from each move's delta, so no [Machine.config], no move list and no
   sleep list is ever materialized on the hot path.  Leaf hooks observe
   the machine through [arena_leaves], like the naive walk's.  A reduced
   run takes one worker, so this walk always starts at the exploration
   root and owns its visited table.

   Fidelity: traversal order (pids ascending, step before crash, crash
   at the same depth), counter cadence (including the [a_por_checks] /
   [a_fast] increments per sleep-set candidate — explored and sleep
   sets are disjoint, so bit iteration visits exactly the candidates
   the reference's list filter does), dedup actions and the
   caching-discipline subset/intersection tests all mirror
   [explore_seq] exactly; the cross-backend digest tests pin this. *)
let explore_arena_reduced ~opts ~acc ?tick ~hooks config0 =
  let m = Engine.Machine.of_config config0 in
  let n = Engine.Machine.n_procs m in
  let histories = Array.make n Fingerprint.history_empty in
  let bindings = Engine.Machine.state_bindings m in
  let nl = List.length bindings in
  (* The live visited-table key ({!ktbl}): [key.(slot)] is the interned
     state of arena slot [slot], [key.(nl + pid)] process [pid]'s word.
     With dedup it is updated at every move and restored on backtrack;
     without, it is never read. *)
  let key = Array.make (nl + n) 0 in
  let visited = if opts.o_dedup then Some (ktbl_create (nl + n)) else None in
  (* Histories are extended through a hash-consing table so re-derived
     spines stay physically shared, and history interning then hits by
     pointer. *)
  let hc = Fingerprint.hcons_create 1024 in
  (* One-entry per-pid extension cache in front of [hc] and the
     table's history ids: right after backtracking, a sibling branch
     re-extends the same (physical) tail with the same memoized event
     blocks, so the consing probe's hashing and the id lookup are both
     skippable.  Physical-only compares — a false miss just falls
     through to [hc], which guarantees the canonical block. *)
  let ext_tl = Array.make n Fingerprint.history_empty in
  let ext_loc = Array.make n "" in
  let ext_op = Array.make n Memory.Value.Unit in
  let ext_result = Array.make n Memory.Value.Unit in
  let ext_ev = Array.make n Fingerprint.history_empty in
  let ext_id = Array.make n 0 in
  (* Leaves the extension in [ext_ev.(pid)] and its id in
     [ext_id.(pid)]. *)
  let extend tbl pid tl ~loc ~op ~result =
    if
      not
        (ext_tl.(pid) == tl
        && ext_loc.(pid) == loc
        && ext_op.(pid) == op
        && ext_result.(pid) == result)
    then begin
      let ev = Fingerprint.history_extend_hc hc tl ~loc ~op ~result in
      ext_tl.(pid) <- tl;
      ext_loc.(pid) <- loc;
      ext_op.(pid) <- op;
      ext_result.(pid) <- result;
      ext_ev.(pid) <- ev;
      ext_id.(pid) <- hist_id tbl ev
    end
  in
  (match visited with
  | None -> ()
  | Some tbl ->
    List.iteri (fun slot (_, v) -> key.(slot) <- value_id tbl v) bindings;
    for pid = 0 to n - 1 do
      key.(nl + pid) <-
        proc_word tbl
          (Engine.Machine.status m pid)
          (hist_id tbl histories.(pid))
    done);
  (* Move path and per-move frames, both indexed by [mc] and grown
     together with the deepest branch reached, never with [max_steps]: a
     frame per live move, reused across siblings at the same depth. *)
  let path = ref (Array.make 64 0) in
  let frames = ref (Array.init 64 (fun _ -> Engine.Machine.frame ())) in
  let frame_at mc =
    let fa = !frames in
    let len = Array.length fa in
    if mc < len then Array.unsafe_get fa mc
    else begin
      let len' = max (2 * len) (mc + 1) in
      let p = Array.make len' 0 in
      Array.blit !path 0 p 0 len;
      path := p;
      frames :=
        Array.init len' (fun i ->
            if i < len then fa.(i) else Engine.Machine.frame ());
      !frames.(mc)
    end
  in
  let at_leaf = arena_leaves hooks m config0 [] in
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
        acc.a_terminals <- acc.a_terminals + 1;
        at_leaf ~terminal:true !path mc
      end
      else if depth >= opts.o_max_steps then begin
        acc.a_truncated <- acc.a_truncated + 1;
        at_leaf ~terminal:false !path mc
      end
      else begin
        if running >= 2 || opts.o_crash_faults then
          acc.a_choice_points <- acc.a_choice_points + 1;
        let accs =
          if opts.o_por then Array.init n (Engine.Machine.access_enc m)
          else [||]
        in
        (* every step move below reuses this frame, and every move
           writes path slot [mc], which [frame_at] makes room for *)
        let f = frame_at mc in
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
               let saved_hist = histories.(pid) in
               let saved_word = key.(nl + pid) in
               let saved_slot = ref (-1) and saved_state = ref 0 in
               Engine.Machine.step_frame m pid f;
               (match visited with
               | None -> ()
               | Some tbl ->
                 let hid =
                   if Engine.Machine.frame_step_event m f then begin
                     let slot = Engine.Machine.frame_loc_id m f in
                     let old_state = Engine.Machine.frame_old_state m f
                     and new_state = Engine.Machine.frame_new_state m f in
                     extend tbl pid histories.(pid)
                       ~loc:(Engine.Machine.frame_loc m f)
                       ~op:(Engine.Machine.frame_op m f)
                       ~result:(Engine.Machine.frame_result m f);
                     histories.(pid) <- ext_ev.(pid);
                     saved_slot := slot;
                     saved_state := key.(slot);
                     if new_state != old_state then
                       key.(slot) <- value_id tbl new_state;
                     ext_id.(pid)
                   end
                   else saved_word lsr hist_shift
                 in
                 key.(nl + pid) <-
                   proc_word tbl (Engine.Machine.status m pid) hid);
               Array.unsafe_set !path mc pid;
               go (depth + 1) (mc + 1)
                 (if Engine.Machine.is_running m pid then running
                  else running - 1)
                 child_sleep;
               Engine.Machine.undo_frame m f;
               histories.(pid) <- saved_hist;
               key.(nl + pid) <- saved_word;
               if !saved_slot >= 0 then key.(!saved_slot) <- !saved_state;
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
                let saved_word = key.(nl + pid) in
                Engine.Machine.crash_frame m pid;
                (* a running process's word has payload 0 *)
                key.(nl + pid) <- saved_word lor code_crashed;
                Array.unsafe_set !path mc (-pid - 1);
                go depth (mc + 1) (running - 1) child_sleep;
                Engine.Machine.uncrash_frame m pid;
                key.(nl + pid) <- saved_word;
                if opts.o_por then explored := !explored lor (1 lsl (n + pid))
              end
            end
          end
        done
      end
    in
    match visited with
    | None -> proceed sleep
    | Some tbl ->
      let tok = Lepower_prof.Phase.enter ph_fingerprint in
      let h = key_hash key in
      let e = ktbl_find tbl key h in
      (* [-1]: dedup; otherwise the sleep set to proceed under (bitsets
         use bits below 62, so they are never negative) *)
      let next =
        if e < 0 then begin
          ktbl_add tbl key h (if leaf then 0 else sleep);
          sleep
        end
        else
          let stored = ktbl_sleep tbl e in
          if leaf || stored land lnot sleep = 0 then -1
          else begin
            let sleep = sleep land stored in
            ktbl_set_sleep tbl e sleep;
            sleep
          end
      in
      Lepower_prof.Phase.leave tok;
      if next < 0 then acc.a_deduped <- acc.a_deduped + 1 else proceed next
  in
  let running0 = ref 0 in
  for pid = 0 to n - 1 do
    if Engine.Machine.is_running m pid then incr running0
  done;
  go 0 0 !running0 0;
  Option.iter record_visited visited;
  m

(* Walker dispatch for one DFS item: the whole run, from the root, when
   one worker walks, or one frontier item of a parallel naive run. *)
let explore_item ~opts ~acc ?tick ~hooks ~on_lowering ((config, _, _) as item)
    =
  let lowered m =
    match on_lowering with
    | None -> ()
    | Some f -> f (Engine.Machine.reports m)
  in
  match opts.o_walker with
  | Seq -> explore_seq ~opts ~acc ?tick ~hooks item
  | Arena_naive -> lowered (explore_arena_naive ~opts ~acc ?tick ~hooks item)
  | Arena_reduced ->
    (* a reduced run's only item is the root *)
    lowered (explore_arena_reduced ~opts ~acc ?tick ~hooks config)

(* ------------------------------------------------------------------ *)
(* Multicore frontier exploration.                                    *)

(* Expand the first few levels of the schedule tree breadth-first (only
   naive runs split, so the split is exact) until at least [target]
   roots exist; leaves met on the way are dispatched to the callbacks
   right here in the coordinator.  Returns the frontier in deterministic
   (schedule) order, each root carrying its depth and path prefix. *)
let split_frontier ~opts ~acc ~hooks ~target config =
  let expand (config, depth, rpath) =
    if depth > acc.a_max_depth then acc.a_max_depth <- depth;
    acc.a_configs <- acc.a_configs + 1;
    match Engine.enabled config with
    | [] ->
      acc.a_terminals <- acc.a_terminals + 1;
      config_leaf hooks ~terminal:true config rpath;
      []
    | _ when depth >= opts.o_max_steps ->
      acc.a_truncated <- acc.a_truncated + 1;
      config_leaf hooks ~terminal:false config rpath;
      []
    | pids ->
      if (match pids with _ :: _ :: _ -> true | _ -> opts.o_crash_faults)
      then acc.a_choice_points <- acc.a_choice_points + 1;
      List.map
        (fun m ->
          let rpath' = decision_of_move m :: rpath in
          match m with
          | Step_m pid -> (Engine.step config pid, depth + 1, rpath')
          | Crash_m pid -> (Engine.crash config pid, depth, rpath'))
        (moves_of opts pids)
  in
  let rec grow frontier =
    if List.length frontier >= target then frontier
    else
      match List.concat_map expand frontier with
      | [] -> []
      | next -> grow next
  in
  grow [ (config, 0, []) ]

(* Workers share nothing: each gets every [i mod domains = w]-th frontier
   root (static split, so per-worker work — and therefore every merged
   count — is deterministic) and its own accumulator.  User callbacks
   are serialized through one mutex by the caller.  A worker that raises
   (e.g. [Stop_exploration] out of a checking callback) stops early; its
   exception is re-raised by the coordinator after all workers are
   joined. *)
(* Globally merged running totals for the progress callback: workers
   publish their accumulator deltas with atomic adds each tick, so any
   single reader sees a consistent-enough global count without touching
   the workers' hot state.  Parallel runs are naive, so nothing is
   deduped or pruned. *)
type pshared = {
  ps_configs : int Atomic.t;
  ps_terminals : int Atomic.t;
  ps_truncated : int Atomic.t;
  ps_max_depth : int Atomic.t;
}

let pshared_create () =
  {
    ps_configs = Atomic.make 0;
    ps_terminals = Atomic.make 0;
    ps_truncated = Atomic.make 0;
    ps_max_depth = Atomic.make 0;
  }

(* [last]: the worker's accumulator as of its previous publish. *)
let pshared_publish ps ~last (wacc : acc) =
  let add cell now prev =
    if now <> prev then ignore (Atomic.fetch_and_add cell (now - prev))
  in
  add ps.ps_configs wacc.a_configs !last.a_configs;
  add ps.ps_terminals wacc.a_terminals !last.a_terminals;
  add ps.ps_truncated wacc.a_truncated !last.a_truncated;
  let rec bump () =
    let cur = Atomic.get ps.ps_max_depth in
    if
      wacc.a_max_depth > cur
      && not (Atomic.compare_and_set ps.ps_max_depth cur wacc.a_max_depth)
    then bump ()
  in
  bump ();
  last := { wacc with a_configs = wacc.a_configs }

let pshared_progress ps ~domains =
  {
    p_configs = Atomic.get ps.ps_configs;
    p_terminals = Atomic.get ps.ps_terminals;
    p_truncated = Atomic.get ps.ps_truncated;
    p_deduped = 0;
    p_pruned = 0;
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

let run_parallel ~opts ~acc ~domains ~progress ~hooks ~on_lowering config =
  let frontier =
    let tok = Lepower_prof.Phase.enter ph_frontier in
    let f = split_frontier ~opts ~acc ~hooks ~target:(domains * 4) config in
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
              let last = ref (acc_create ()) in
              let tick wacc =
                pshared_publish ps ~last wacc;
                notify ()
              in
              let tick = if progress = None then None else Some tick in
              let failed = ref None in
              let tok = Lepower_prof.Phase.enter ph_walk in
              (try
                 let roots = ref 0 in
                 Array.iteri
                   (fun i item ->
                     if i mod nd = w then begin
                       incr roots;
                       explore_item ~opts ~acc:wacc ?tick ~hooks ~on_lowering
                         item
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
    (match List.find_map snd results with Some e -> raise e | None -> ());
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

(* [serialize]: wrap the hooks in one mutex when running on several
   domains.  The public [explore] always serializes (arbitrary user
   callbacks); [check_all] opts out for its own pure predicate — locking
   around every terminal would serialize the whole search — and locks
   only the failure recording.

   Only naive runs split over domains: a run with dedup or POR prunes
   against one visited table and its sleep sets, which a split would
   give each worker separately, so it takes one worker, from the root,
   whatever [domains] says. *)
let explore_inner ~serialize ~(options : Options.t) ~hooks config =
  let opts = opts_of options ~n_procs:(Array.length config.Engine.procs) in
  let domains = options.Options.domains in
  let parallel = domains > 1 && not (opts.o_dedup || opts.o_por) in
  (* The lowering report fires once per DFS item, not per configuration,
     so a mutex around it is cheap even on the hottest runs. *)
  let on_lowering =
    match options.Options.on_lowering with
    | Some f when parallel ->
      let mutex = Mutex.create () in
      Some
        (fun reports ->
          Mutex.lock mutex;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock mutex)
            (fun () -> f reports))
    | f -> f
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
  let run =
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
        if not parallel then begin
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
          explore_item ~opts ~acc ?tick ~hooks ~on_lowering (config, 0, []);
          Lepower_prof.Phase.leave tok;
          1
        end
        else
          let hooks =
            if not serialize then hooks
            else
              let mutex = Mutex.create () in
              {
                h_terminal = with_mutex mutex hooks.h_terminal;
                h_truncated = with_mutex mutex hooks.h_truncated;
              }
          in
          run_parallel ~opts ~acc ~domains ~progress ~hooks ~on_lowering config)
  in
  finish run

let explore ?(options = Options.default) config =
  explore_inner ~serialize:true ~options
    ~hooks:
      {
        h_terminal = drop_path options.Options.on_terminal;
        h_truncated = drop_path options.Options.on_truncated;
      }
    config

type violation = {
  trace : Trace.t;
  message : string;
  decisions : Repro.decision list;
}

exception Unsound_predicate of string

let unsound_message =
  "Explore.check_all: the predicate inspected the global \
   trace order (Config_view.trace / last_event / config) on a satisfying \
   terminal while dedup or por was enabled; the reductions only preserve \
   trace-order-insensitive properties, so the verdict would be unsound. \
   Disable dedup/por, or restate the predicate with order-insensitive \
   accessors (statuses, decisions, steps, store_state, events_of)."

let check_all ?(options = Options.default) config predicate =
  (* The predicate is a pure function of the view, so under domain
     parallelism it runs concurrently in the workers with no lock — a
     per-terminal mutex would serialize the entire search.  Only the
     effectful spot synchronizes: recording the first violation. *)
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
  let guard_order = options.Options.dedup || options.Options.por in
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
      ~hooks:{ h_terminal = Some on_terminal; h_truncated = Some on_truncated }
      config
  with
  | stats -> Ok stats
  | exception Stop_exploration -> (
    match !failure with
    | Some v -> Error v
    | None -> assert false)

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
       ~hooks:
         {
           h_terminal = Some on_terminal;
           h_truncated = drop_path options.Options.on_truncated;
         }
       config);
  Vtbl.fold (fun _ ds acc -> ds :: acc) sets []
  |> List.sort (List.compare Memory.Value.compare)
