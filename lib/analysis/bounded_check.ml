module Value = Memory.Value
module Trace = Runtime.Trace
module Sigma = Core.Sigma
module Label = Core.Label

(* "cas(7)" -> Some 7 *)
let cas_size type_name =
  if String.length type_name > 5 && String.sub type_name 0 4 = "cas(" then
    int_of_string_opt (String.sub type_name 4 (String.length type_name - 5))
  else None

let check_history ?label ~k ~loc history =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (match history with
  | [] | Sigma.Bot :: _ -> ()
  | s :: _ ->
    add
      (Finding.v ~rule:"sigma-history" ~loc
         "history starts at %s, not at ⊥" (Sigma.to_string s)));
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      if Sigma.equal a b then
        add
          (Finding.v ~rule:"sigma-history" ~loc
             "history repeats %s consecutively (a c&s success must change \
              the value)"
             (Sigma.to_string a));
      adjacent rest
    | _ -> ()
  in
  adjacent history;
  (* The space bound itself: the register may ever take at most k distinct
     values — ⊥ plus the k−1 symbols 0 … k−2. *)
  let non_bottom =
    List.sort_uniq Sigma.compare
      (List.filter (fun s -> not (Sigma.equal s Sigma.Bot)) history)
  in
  if List.length non_bottom > k - 1 then
    add
      (Finding.v ~rule:"bounded-value" ~loc
         "%d distinct non-⊥ values appear; a cas(%d) admits only %d"
         (List.length non_bottom) k (k - 1));
  List.iter
    (fun s ->
      match s with
      | Sigma.V i when i < 0 || i > k - 2 ->
        add
          (Finding.v ~rule:"bounded-value" ~loc
             "value %d escapes the Σ alphabet {⊥, 0, …, %d}" i (k - 2))
      | Sigma.V _ | Sigma.Bot -> ())
    non_bottom;
  (* First uses, in order of appearance and without repeats, always
     form a legal label; when the caller knows which label this history
     belongs to (the emulation does), they must follow exactly that
     label's order. *)
  let first_uses =
    List.fold_left
      (fun acc s ->
        match s with
        | Sigma.Bot -> acc
        | Sigma.V i -> if List.mem i acc then acc else i :: acc)
      [] history
    |> List.rev
  in
  Option.iter
    (fun l ->
      if not (Label.is_prefix first_uses l) then
        add
          (Finding.v ~rule:"label-order" ~loc
             "first uses %s do not follow the label %s"
             (Label.to_string first_uses) (Label.to_string l)))
    label;
  List.rev !findings

(* What [finish] certifies on one location's value timeline. *)
type cert =
  | Sigma_history of int  (* a legal Σ-history of a cas(k) *)
  | Sticky_once  (* a sticky register changes value at most once *)
  | Declared of int
      (* at most k distinct values: a declared bound on an object type
         without an intrinsic alphabet, such as swap *)

module Smap = Map.Make (String)

type ctx = {
  store : Memory.Store.t;
  certs : (string * cert) list;  (* certified locations, sorted *)
}

let prepare ?(bounds = []) store =
  let cert loc =
    let type_name =
      match Memory.Store.spec_of store loc with
      | Some s -> s.Memory.Spec.type_name
      | None -> ""
    in
    match (cas_size type_name, List.assoc_opt loc bounds) with
    | Some k, declared ->
      Some (loc, Sigma_history (Option.value ~default:k declared))
    | None, _ when String.equal type_name "sticky" -> Some (loc, Sticky_once)
    | None, Some k -> Some (loc, Declared k)
    | None, None -> None
  in
  { store; certs = List.filter_map cert (Memory.Store.locs store) }

(* The replay so far: the specs' store, each location's value timeline
   (newest first, consecutive repeats collapsed; its head is always the
   location's replayed state) and the replay divergences found. *)
type state = {
  replay : Memory.Store.t;
  timelines : Value.t list Smap.t;
  divergences : Finding.t list;
}

(* [loc] is bound: [init] started its timeline. *)
let note_state timelines loc state =
  match Smap.find loc timelines with
  | last :: _ when Value.equal last state -> timelines
  | prev -> Smap.add loc (state :: prev) timelines

let init ctx =
  {
    replay = ctx.store;
    timelines =
      Memory.Store.fold_states
        (fun loc state acc -> Smap.add loc [ state ] acc)
        ctx.store Smap.empty;
    divergences = [];
  }

(* Replay one event through the sequential specs: every recorded response
   must be reproducible.  This is the strongest per-location op/response
   cross-check we can run — specs are deterministic, so a genuine engine
   trace replays exactly. *)
let step _ctx st (e : Trace.event) =
  match Memory.Store.apply st.replay ~pid:e.Trace.pid e.Trace.loc e.Trace.op with
  | Error msg ->
    {
      st with
      divergences =
        Finding.v ~rule:"replay-divergence" ~loc:e.Trace.loc
          "t=%d p%d op %s rejected on replay: %s" e.Trace.time e.Trace.pid
          (Value.to_string e.Trace.op) msg
        :: st.divergences;
    }
  | Ok (replay, result) ->
    let divergences =
      if Value.equal result e.Trace.result then st.divergences
      else
        Finding.v ~rule:"replay-divergence" ~loc:e.Trace.loc
          "t=%d p%d op %s returned %s but replays to %s" e.Trace.time
          e.Trace.pid
          (Value.to_string e.Trace.op)
          (Value.to_string e.Trace.result)
          (Value.to_string result)
        :: st.divergences
    in
    let timelines =
      match Memory.Store.peek replay e.Trace.loc with
      | Some state -> note_state st.timelines e.Trace.loc state
      | None -> st.timelines
    in
    { replay; timelines; divergences }

(* Certify each bounded location's value timeline. *)
let finish ctx st =
  let findings = ref st.divergences in
  let add f = findings := f :: !findings in
  List.iter
    (fun (loc, cert) ->
      let timeline =
        List.rev (Option.value ~default:[] (Smap.find_opt loc st.timelines))
      in
      match cert with
      | Sigma_history k ->
        let history =
          List.filter_map
            (fun v ->
              match Sigma.of_value v with
              | s -> Some s
              | exception Value.Type_error _ ->
                add
                  (Finding.v ~rule:"sigma-history" ~loc
                     "state %s is outside the Σ encoding" (Value.to_string v));
                None)
            timeline
        in
        List.iter add (check_history ~k ~loc history)
      | Sticky_once ->
        let changes = List.length timeline - 1 in
        if changes > 1 then
          add
            (Finding.v ~rule:"sticky-discipline" ~loc
               "sticky register changed value %d times (⊥ may freeze once)"
               changes)
      | Declared k ->
        let distinct = List.length (List.sort_uniq Value.compare timeline) in
        if distinct > k then
          add
            (Finding.v ~rule:"bounded-value" ~loc
               "%d distinct values observed; declared bound is %d" distinct k))
    ctx.certs;
  Finding.dedup !findings

let check ?bounds ~store trace =
  let ctx = prepare ?bounds store in
  finish ctx (List.fold_left (step ctx) (init ctx) trace)
