module Value = Memory.Value
module Program = Runtime.Program
module Spec = Memory.Spec

type verdict =
  | Bounded of int
  | Exceeded of { budget : int; witness : (string * Value.t) list }
  | Inconclusive of { explored : int }

(* Witnesses are [budget + 1] ops long; show a readable prefix. *)
let witness_summary ?(limit = 8) witness =
  let shown =
    List.filteri (fun i _ -> i < limit) witness |> List.map fst
  in
  let prefix = String.concat " → " shown in
  if List.length witness <= limit then prefix
  else Printf.sprintf "%s → … (%d ops)" prefix (List.length witness)

let pp_verdict ppf = function
  | Bounded b -> Fmt.pf ppf "bounded (≤ %d ops)" b
  | Exceeded { budget; witness } ->
    Fmt.pf ppf "exceeds budget %d (witness: %s)" budget
      (witness_summary witness)
  | Inconclusive { explored } ->
    Fmt.pf ppf "inconclusive (state space cap hit after %d nodes)" explored

module Vset = Set.Make (Value)

type responder = {
  respond : pid:int -> loc:string -> op:Value.t -> Value.t list;
}

let store_responder store =
  (* The adversarial environment: an operation may observe the object in
     any state the pooled execution has ever produced, not just the state
     this process's own ops would leave behind.  The pool grows as the
     audit walks programs — auditing all processes twice (as
     [audit_programs] does) lets every process see states produced by
     every other. *)
  let pool : (string, Vset.t) Hashtbl.t = Hashtbl.create 16 in
  let states loc =
    match Hashtbl.find_opt pool loc with
    | Some s -> s
    | None ->
      let s =
        match Memory.Store.peek store loc with
        | Some init -> Vset.singleton init
        | None -> Vset.empty
      in
      Hashtbl.replace pool loc s;
      s
  in
  let respond ~pid ~loc ~op =
    match Memory.Store.spec_of store loc with
    | None -> []
    | Some spec ->
      let responses = ref Vset.empty in
      Vset.iter
        (fun state ->
          match Spec.apply spec ~pid state op with
          | Error _ -> ()
          | Ok (state', resp) ->
            Hashtbl.replace pool loc (Vset.add state' (states loc));
            responses := Vset.add resp !responses)
        (states loc);
      Vset.elements !responses
  in
  { respond }

let audit ?(max_nodes = 100_000) ~budget ~responder ~pid prog =
  let nodes = ref 0 in
  let capped = ref false in
  let deepest = ref 0 in
  let exceeded = ref None in
  (* Depth-first: a runaway loop is found at depth budget+1 after only
     budget+1 nodes, long before the cap matters. *)
  let rec go prog depth path =
    if !exceeded <> None || !capped then ()
    else if depth > budget then exceeded := Some (List.rev path)
    else begin
      if depth > !deepest then deepest := depth;
      match prog with
      | Program.Done _ -> ()
      | Program.Step (loc, op, k) ->
        let responses = responder.respond ~pid ~loc ~op in
        List.iter
          (fun resp ->
            if !exceeded = None && not !capped then begin
              incr nodes;
              if !nodes > max_nodes then capped := true
              else
                match k resp with
                | exception _ ->
                  (* A raising continuation cannot take further steps —
                     the engine faults the process on a type error, and
                     any other exception only arises here because the
                     pooled responder feeds state combinations no real
                     execution produces.  Either way the path ends. *)
                  ()
                | next -> go next (depth + 1) ((loc, op) :: path)
            end)
          responses
    end
  in
  go prog 0 [];
  match !exceeded with
  | Some witness -> Exceeded { budget; witness }
  | None ->
    if !capped then Inconclusive { explored = !nodes } else Bounded !deepest

let audit_programs ?max_nodes ~store ~budget progs =
  let responder = store_responder store in
  let run () =
    List.mapi (fun pid prog -> (pid, audit ?max_nodes ~budget ~responder ~pid prog)) progs
  in
  (* First pass seeds the shared state pool with every process's writes;
     the second pass audits against the pooled (adversary-visible)
     states.  The verdicts of the second pass are the report. *)
  ignore (run ());
  run ()
