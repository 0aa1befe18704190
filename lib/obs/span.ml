type completed = {
  name : string;
  start_us : float;
  dur_us : float;
  tid : int;
  args : (string * Json.t) list;
}

type sink = completed -> unit

let on = ref false
let enable () = on := true
let disable () = on := false
let is_enabled () = !on

let buffer : completed list ref = ref [] (* newest first *)
let custom_sink : sink option ref = ref None
let set_sink s = custom_sink := s

let epoch = Unix.gettimeofday ()

(* One lock covers the monotone-clock state and the buffer, so spans
   completed in Domain workers neither tear the buffer list nor step the
   clock backwards relative to each other. *)
let lock = Mutex.create ()

let now_us =
  let last = ref 0. in
  fun () ->
    let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
    Mutex.lock lock;
    if t > !last then last := t;
    let t = !last in
    Mutex.unlock lock;
    t

let emit span =
  match !custom_sink with
  | Some f -> f span
  | None ->
    Mutex.lock lock;
    buffer := span :: !buffer;
    Mutex.unlock lock

let with_span ?(tid = 0) ?(args = []) name f =
  if not !on then f ()
  else begin
    let start_us = now_us () in
    let finish () =
      emit { name; start_us; dur_us = now_us () -. start_us; tid; args }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let completed () =
  List.sort
    (fun a b -> Float.compare a.start_us b.start_us)
    (List.rev !buffer)

let reset () = buffer := []
