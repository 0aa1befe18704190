module Value = Memory.Value
module Program = Runtime.Program

type operation = {
  pid : int;
  op : Value.t;
  result : Value.t;
  inv_time : int;
  res_time : int;
}

type t = operation list

let recorder_spec () =
  let apply ~pid state op =
    let events = Value.as_list state in
    match op with
    | Value.Pair (Value.Sym "inv", o) ->
      Ok
        ( Value.list (events @ [ Value.triple (Value.sym "inv") (Value.int pid) o ]),
          Value.unit )
    | Value.Pair (Value.Sym "res", r) ->
      Ok
        ( Value.list (events @ [ Value.triple (Value.sym "res") (Value.int pid) r ]),
          Value.unit )
    | _ -> Error ("history recorder: bad operation " ^ Value.to_string op)
  in
  Memory.Spec.make ~type_name:"history-recorder" ~init:(Value.list []) ~apply

let invoke loc o =
  let open Program in
  let* _ = op loc (Value.pair (Value.sym "inv") o) in
  return ()

let respond loc r =
  let open Program in
  let* _ = op loc (Value.pair (Value.sym "res") r) in
  return ()

let bracket loc o body =
  let open Program in
  let* () = invoke loc o in
  let* result = body in
  let* () = respond loc result in
  return result

let of_events loc events =
  let events =
    match events with
    | Some v -> Value.as_list v
    | None -> invalid_arg ("History.of_store: no recorder at " ^ loc)
  in
  (* Pair each response with its process's pending invocation. *)
  let pending = Hashtbl.create 7 in
  let ops = ref [] in
  List.iteri
    (fun time event ->
      let kind, pid, payload = Value.as_triple event in
      let pid = Value.as_int pid in
      match Value.as_sym kind with
      | "inv" -> Hashtbl.replace pending pid (payload, time)
      | "res" -> (
        match Hashtbl.find_opt pending pid with
        | None ->
          invalid_arg "History.of_store: response without invocation"
        | Some (op, inv_time) ->
          Hashtbl.remove pending pid;
          ops := { pid; op; result = payload; inv_time; res_time = time } :: !ops)
      | s -> invalid_arg ("History.of_store: bad event kind " ^ s))
    events;
  List.rev !ops

let of_store store loc = of_events loc (Memory.Store.peek store loc)

let pp ppf t =
  let pp_op ppf o =
    Fmt.pf ppf "p%d %a -> %a [%d,%d]" o.pid Value.pp o.op Value.pp o.result
      o.inv_time o.res_time
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_op) t
