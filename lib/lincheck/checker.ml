module Value = Memory.Value

let m_checks = Lepower_obs.Metrics.counter "lincheck.checks"
let m_memo_hits = Lepower_obs.Metrics.counter "lincheck.memo_hits"
let m_memo_misses = Lepower_obs.Metrics.counter "lincheck.memo_misses"

type result =
  | Linearizable of History.operation list
  | Not_linearizable

module Key = struct
  type t = bool array * Value.t

  let equal (d1, s1) (d2, s2) = d1 = d2 && Value.equal s1 s2
  let hash (d, s) = Hashtbl.hash (d, Value.hash s)
end

module Memo = Hashtbl.Make (Key)

let check ~spec history =
  Lepower_obs.Metrics.incr m_checks;
  Lepower_obs.Span.with_span "lincheck.check"
    ~args:[ ("ops", Lepower_obs.Json.Int (List.length history)) ]
  @@ fun () ->
  let ops = Array.of_list history in
  let n = Array.length ops in
  let done_ = Array.make n false in
  let visited = Memo.create 64 in
  (* An operation is schedulable next if every operation that responded
     before its invocation is already placed. *)
  let precedes i j =
    ops.(i).History.res_time < ops.(j).History.inv_time
  in
  let rec go state placed count =
    if count = n then Some (List.rev placed)
    else
      let key = (Array.copy done_, state) in
      if Memo.mem visited key then begin
        Lepower_obs.Metrics.incr m_memo_hits;
        None
      end
      else begin
        Lepower_obs.Metrics.incr m_memo_misses;
        Memo.add visited key ();
        let rec try_ops i =
          if i >= n then None
          else if
            done_.(i)
            || not
                 (Array.for_all
                    (fun j -> done_.(j) || not (precedes j i))
                    (Array.init n (fun j -> j)))
          then try_ops (i + 1)
          else
            match
              Memory.Spec.apply spec ~pid:ops.(i).History.pid state
                ops.(i).History.op
            with
            | Error _ -> try_ops (i + 1)
            | Ok (state', response) ->
              if not (Value.equal response ops.(i).History.result) then
                try_ops (i + 1)
              else begin
                done_.(i) <- true;
                match go state' (ops.(i) :: placed) (count + 1) with
                | Some _ as r -> r
                | None ->
                  done_.(i) <- false;
                  try_ops (i + 1)
              end
        in
        try_ops 0
      end
  in
  match go spec.Memory.Spec.init [] 0 with
  | Some order -> Linearizable order
  | None -> Not_linearizable

let is_linearizable ~spec history =
  match check ~spec history with
  | Linearizable _ -> true
  | Not_linearizable -> false
