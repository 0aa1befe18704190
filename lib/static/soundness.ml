module Value = Memory.Value
module Trace = Runtime.Trace
module Op_codec = Objects.Op_codec
module Sset = Summary.Sset

type ctx = {
  store : Memory.Store.t;
  summary : Summary.t;
  by_pid : (Sset.t * Sset.t) array;  (* per pid: footprint, may-write *)
}

let prepare ~store summary =
  {
    store;
    summary;
    by_pid =
      Array.of_list
        (List.map
           (fun p -> (Summary.footprint p, p.Summary.may_write))
           summary.Summary.per_pid);
  }

(* The replayed store, the locations whose replay diverged, and the
   violations so far, newest first. *)
type state = {
  replay : Memory.Store.t;
  diverged : Sset.t;
  violations : string list;
}

let init ctx = { replay = ctx.store; diverged = Sset.empty; violations = [] }

let step ctx st (e : Trace.event) =
  let violations = ref st.violations in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let pid = e.Trace.pid and loc = e.Trace.loc in
  (if pid < 0 || pid >= Array.length ctx.by_pid then
     add "t=%d event by unknown p%d" e.Trace.time pid
   else
     let footprint, may_write = ctx.by_pid.(pid) in
     let mutates = Op_codec.is_mutation (Op_codec.classify e.Trace.op) in
     if not (Sset.mem loc footprint) then
       add "t=%d p%d touched %s outside its static footprint" e.Trace.time pid
         loc
     else if mutates && not (Sset.mem loc may_write) then
       add "t=%d p%d mutated %s outside its may-write set" e.Trace.time pid loc);
  let replay, diverged =
    if Sset.mem loc st.diverged then (st.replay, st.diverged)
    else
      match Memory.Store.apply st.replay ~pid loc e.Trace.op with
      | Ok (replay, result) when Value.equal result e.Trace.result ->
        (match Memory.Store.peek replay loc with
        | None -> ()
        | Some state -> (
          match Summary.sigma_of ctx.summary loc with
          | Some sigma when Absval.mem state sigma -> ()
          | Some _ ->
            add "state %s of %s is outside Σ̂" (Value.to_string state) loc
          | None -> add "location %s is outside Σ̂'s domain" loc));
        (replay, st.diverged)
      | Ok _ | Error _ ->
        (* Replay divergence (faults, lost writes): the dynamic lint
           reports it; we just stop judging this location's states. *)
        (st.replay, Sset.add loc st.diverged)
  in
  { replay; diverged; violations = !violations }

let finish _ctx st = List.rev st.violations

let check ~store summary trace =
  let ctx = prepare ~store summary in
  finish ctx (List.fold_left (step ctx) (init ctx) trace)
