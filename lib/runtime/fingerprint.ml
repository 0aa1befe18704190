module Value = Memory.Value

let mix h x = (h * 0x01000193) lxor x

(* Hash-chained persistent history.  Sharing matters: sibling branches of
   the exploration extend the same tail, so the spine (and its hashes) is
   computed once per event, not once per configuration. *)
type history =
  | Nil
  | Ev of { loc : string; op : Value.t; result : Value.t; h : int; tl : history }

let history_empty = Nil
let history_hash = function Nil -> 0x2545f491 | Ev e -> e.h

let history_extend_op tl ~loc ~op ~result =
  (* [time] and [pid] deliberately excluded: the fingerprint must be
     invariant under reorderings of other processes' events. *)
  let h =
    String.fold_left
      (fun h c -> mix h (Char.code c))
      (mix (history_hash tl) 0x1f) loc
  in
  let h = Value.hash_fold (Value.hash_fold h op) result in
  Ev { loc; op; result; h; tl }

let history_extend tl (e : Trace.event) =
  history_extend_op tl ~loc:e.Trace.loc ~op:e.Trace.op ~result:e.Trace.result

(* Hash-consed extension.  Exploration revisits the same configuration
   along many interleavings; without consing each route rebuilds its own
   structurally-equal history spine, and every visited-set hit then pays
   a full structural walk to prove equality.  Consing on
   (physical tail, event) makes re-derived histories physically equal —
   programs are deterministic, so re-extending the same tail in the same
   state appends the same event — and [history_equal]'s [==] shortcut
   turns hit-side comparison into a pointer check.  The table is scoped
   by the caller (one per walk): consing is an optimization, never a
   semantic requirement, and un-consed histories still compare fine. *)
type hcons = { mutable hc_buckets : history list array; mutable hc_count : int }

let hcons_create size = { hc_buckets = Array.make (max 16 size) []; hc_count = 0 }

let history_extend_hc hc tl ~loc ~op ~result =
  let h =
    String.fold_left
      (fun h c -> mix h (Char.code c))
      (mix (history_hash tl) 0x1f) loc
  in
  let h = Value.hash_fold (Value.hash_fold h op) result in
  let idx = h land max_int mod Array.length hc.hc_buckets in
  let rec scan = function
    | (Ev e as ev) :: rest ->
      if
        e.h = h && e.tl == tl
        && String.equal e.loc loc
        && Value.equal e.op op
        && Value.equal e.result result
      then Some ev
      else scan rest
    | (Nil :: _ | []) -> None
  in
  match scan hc.hc_buckets.(idx) with
  | Some ev -> ev
  | None ->
    (if hc.hc_count >= 2 * Array.length hc.hc_buckets then begin
       let bs = Array.make (2 * Array.length hc.hc_buckets) [] in
       Array.iter
         (List.iter (fun ev ->
              let i =
                (match ev with Ev e -> e.h | Nil -> 0) land max_int
                mod Array.length bs
              in
              bs.(i) <- ev :: bs.(i)))
         hc.hc_buckets;
       hc.hc_buckets <- bs
     end);
    let ev = Ev { loc; op; result; h; tl } in
    let idx = h land max_int mod Array.length hc.hc_buckets in
    hc.hc_buckets.(idx) <- ev :: hc.hc_buckets.(idx);
    hc.hc_count <- hc.hc_count + 1;
    ev

let rec history_equal a b =
  a == b
  ||
  match (a, b) with
  | Nil, Nil -> true
  | Ev x, Ev y ->
    x.h = y.h
    && String.equal x.loc y.loc
    && Value.equal x.op y.op
    && Value.equal x.result y.result
    && history_equal x.tl y.tl
  | (Nil | Ev _), _ -> false

let status_hash = function
  | Proc.Running -> 0x3d
  | Proc.Decided v -> Value.hash_fold 0x47 v
  | Proc.Crashed -> 0x59
  | Proc.Faulty m ->
    String.fold_left (fun h c -> mix h (Char.code c)) 0x6b m

let status_equal a b =
  match (a, b) with
  | Proc.Running, Proc.Running | Proc.Crashed, Proc.Crashed -> true
  | Proc.Decided x, Proc.Decided y -> Value.equal x y
  | Proc.Faulty x, Proc.Faulty y -> String.equal x y
  | (Proc.Running | Proc.Decided _ | Proc.Crashed | Proc.Faulty _), _ -> false

type t = {
  hash : int;
  store : (string * Value.t) list;  (** canonical: sorted by location *)
  procs : (Proc.status * history) array;
}

(* The hash is a pair of sums — one term per store binding, one term
   per process — mixed together at the end.  Summing (native
   wrap-around [+]) instead of chaining costs nothing in collision
   resistance we care about: each term is already a deep FNV hash, and
   [equal] rechecks structurally. *)

let store_binding_hash loc v =
  Value.hash_fold
    (String.fold_left
       (fun h c -> mix h (Char.code c))
       (mix 0x811c9dc5 0x7f) loc)
    v

let proc_hash ~pid status hist =
  mix (mix (mix 0x9e3779b9 (pid + 1)) (status_hash status)) (history_hash hist)

let combine ~store_sum ~proc_sum =
  mix (mix 0x811c9dc5 store_sum) proc_sum land max_int

let make (config : Engine.config) histories =
  let store = Memory.Store.state_bindings config.Engine.store in
  let store_sum =
    List.fold_left (fun acc (loc, v) -> acc + store_binding_hash loc v) 0 store
  in
  let procs =
    Array.init (Array.length config.Engine.procs) (fun pid ->
        (config.Engine.procs.(pid).Proc.status, histories.(pid)))
  in
  let proc_sum = ref 0 in
  Array.iteri
    (fun pid (status, hist) ->
      proc_sum := !proc_sum + proc_hash ~pid status hist)
    procs;
  { hash = combine ~store_sum ~proc_sum:!proc_sum; store; procs }

let hash t = t.hash

let equal a b =
  a.hash = b.hash
  && Array.length a.procs = Array.length b.procs
  && (let rec stores xs ys =
        match (xs, ys) with
        | [], [] -> true
        | (la, va) :: xs, (lb, vb) :: ys ->
          String.equal la lb && Value.equal va vb && stores xs ys
        | _, _ -> false
      in
      stores a.store b.store)
  &&
  let n = Array.length a.procs in
  let rec procs i =
    i >= n
    ||
    let sa, ha = a.procs.(i) and sb, hb = b.procs.(i) in
    status_equal sa sb && history_equal ha hb && procs (i + 1)
  in
  procs 0

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Replay digests.                                                     *)

(* Unlike [make] — which deliberately forgets the global interleaving so
   commuting schedules collide — a replay digest must pin the {e exact}
   execution: store bindings, every process's status and step count, and
   the full trace in order, [time]/[pid] stamps included.  Two chained
   FNV-style accumulators with distinct multipliers keep accidental
   collisions out of reach of the schedule spaces we explore. *)
let digest (config : Engine.config) =
  let mix2 m h x = (h * m) lxor x in
  let fold_string m h s =
    String.fold_left (fun h c -> mix2 m h (Char.code c)) (mix2 m h 0x1f) s
  in
  let fold_value m h v = mix2 m (Value.hash_fold h v) 0x2b in
  let fold m seed =
    let h = mix2 m seed config.Engine.time in
    let h =
      List.fold_left
        (fun h (loc, v) -> fold_value m (fold_string m h loc) v)
        h
        (Memory.Store.state_bindings config.Engine.store)
    in
    let h =
      Array.fold_left
        (fun h (p : Proc.t) ->
          mix2 m (mix2 m h (status_hash p.Proc.status)) p.Proc.steps)
        h config.Engine.procs
    in
    List.fold_left
      (fun h (e : Trace.event) ->
        let h = mix2 m (mix2 m h e.Trace.time) e.Trace.pid in
        fold_value m (fold_value m (fold_string m h e.Trace.loc) e.Trace.op)
          e.Trace.result)
      h
      (List.rev config.Engine.trace)
  in
  Printf.sprintf "%08x%08x"
    (fold 0x01000193 0x811c9dc5 land 0xffffffff)
    (fold 0x01000197 0x0b4711d5 land 0xffffffff)
