(* Clocks, order statistics, failure accounting, the benchmark's own
   spans, and the timing loop every per-layer probe uses. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (Python's
   [statistics.quantiles] "inclusive" method); 0 for no samples, so a
   result line never carries a non-number. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      (a.(i) *. (1. -. frac)) +. (a.(i + 1) *. frac)

let median xs = quantile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b

(* --- operations attempted and failed -------------------------------- *)

(* One operation is one call whose output has a known answer: a check,
   a lint run, a fuzz campaign, a hunt, or an untimed guard.  A miss, an
   exception or an exhausted budget each count as one failure. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable misses : string list;
}

let tally () = { attempted = 0; failed = 0; misses = [] }

let op tally name f =
  tally.attempted <- tally.attempted + 1;
  let fail msg =
    tally.failed <- tally.failed + 1;
    if List.length tally.misses < 8 then
      tally.misses <- (name ^ ": " ^ msg) :: tally.misses
  in
  match f () with
  | Ok () -> ()
  | Error msg -> fail msg
  | exception e -> fail ("raised " ^ Printexc.to_string e)

let expect what ~expected actual =
  if expected = actual then Ok ()
  else Error (Printf.sprintf "%s: expected %d, got %d" what expected actual)

let ( let* ) = Result.bind

(* --- the benchmark's own spans --------------------------------------- *)

(* Spans live in memory and are written once, at the end of a traced run.
   They wrap calls the benchmark makes into the libraries; nothing here
   switches on [Lepower_obs.Span], whose flag would also enable the
   libraries' internal spans. *)
type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  start_s : float;
  end_s : float;
}

type spans = {
  enabled : bool;
  mutable next : int;
  mutable current : int;
  mutable done_ : span list;
}

let spans ~enabled = { enabled; next = 1; current = 0; done_ = [] }

let with_span sp name f =
  if not sp.enabled then f ()
  else begin
    let id = sp.next in
    sp.next <- id + 1;
    let parent = sp.current in
    sp.current <- id;
    let start_s = now () in
    let finish () =
      sp.done_ <- { id; parent; name; start_s; end_s = now () } :: sp.done_;
      sp.current <- parent
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* A span over an interval the benchmark observed from outside, such as
   one fuzz run between two progress callbacks. *)
let add_span sp name ~start_s ~end_s =
  if sp.enabled then begin
    let id = sp.next in
    sp.next <- id + 1;
    sp.done_ <- { id; parent = sp.current; name; start_s; end_s } :: sp.done_
  end

let write_spans sp ~run_id ~t0 path =
  let module Json = Lepower_obs.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("run", Json.String run_id);
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("name", Json.String s.name);
                ("start_us", Json.Float ((s.start_s -. t0) *. 1e6));
                ("end_us", Json.Float ((s.end_s -. t0) *. 1e6));
              ]));
      output_char oc '\n')
    (List.rev sp.done_);
  close_out oc

(* --- probe loops ------------------------------------------------------ *)

(* Cost of one call of [f i], in nanoseconds: [f] runs over i = 0, 1, 2,
   ... in batches for about [budget] seconds, split into five slices; the
   result is the median slice's per-call cost. *)
let per_call_ns ~budget f =
  let slice = budget /. 5. in
  let i = ref 0 in
  let one_slice () =
    let calls = ref 0 in
    let t0 = now () in
    let batch = ref 1 in
    while !calls = 0 || now () -. t0 < slice do
      for _ = 1 to !batch do
        f !i;
        incr i
      done;
      calls := !calls + !batch;
      if !batch < 4096 then batch := !batch * 2
    done;
    (now () -. t0) *. 1e9 /. float_of_int !calls
  in
  median (List.init 5 (fun _ -> one_slice ()))
