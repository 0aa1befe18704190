module Json = Lepower_obs.Json

let m_replays = Lepower_obs.Metrics.counter "repro.replays"
let m_shrink_attempts = Lepower_obs.Metrics.counter "repro.shrink_attempts"
let ph_record = Lepower_prof.Phase.make "repro.record"

type decision =
  | Step of int
  | Crash of int
  | Lose of int
  | Stick of string

module Decision = struct
  type t = decision

  let pid = function
    | Step pid | Crash pid | Lose pid -> Some pid
    | Stick _ -> None

  let equal (a : t) (b : t) = a = b

  let pp ppf = function
    | Step pid -> Fmt.pf ppf "s%d" pid
    | Crash pid -> Fmt.pf ppf "c%d" pid
    | Lose pid -> Fmt.pf ppf "l%d" pid
    | Stick loc -> Fmt.pf ppf "k:%s" loc

  let to_json = function
    | Step pid -> Json.String (Printf.sprintf "s%d" pid)
    | Crash pid -> Json.String (Printf.sprintf "c%d" pid)
    | Lose pid -> Json.String (Printf.sprintf "l%d" pid)
    | Stick loc -> Json.String (Printf.sprintf "k:%s" loc)

  let of_json = function
    | Json.String s when String.length s >= 2 -> (
      let num () =
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some pid when pid >= 0 -> Ok pid
        | Some _ | None -> Error (Printf.sprintf "bad decision pid: %S" s)
      in
      match s.[0] with
      | 's' -> Result.map (fun pid -> Step pid) (num ())
      | 'c' -> Result.map (fun pid -> Crash pid) (num ())
      | 'l' -> Result.map (fun pid -> Lose pid) (num ())
      | 'k' ->
        if s.[1] = ':' && String.length s > 2 then
          Ok (Stick (String.sub s 2 (String.length s - 2)))
        else Error (Printf.sprintf "bad stuck-at decision: %S" s)
      | _ -> Error (Printf.sprintf "bad decision tag: %S" s))
    | j ->
      Error
        ("decision is not an \"s<pid>\"/\"c<pid>\"/\"l<pid>\"/\"k:<loc>\" \
          string: " ^ Json.to_string j)
end

type t = {
  format : int;
  subject : Json.t;
  sched : string;
  seed : int option;
  max_steps : int;
  message : string;
  version : string;
  initial : string;
  final : string;
  decisions : decision list;
}

let with_message t message = { t with message }

let git_version =
  let version =
    lazy
      (match Sys.getenv_opt "LEPOWER_GIT_DESCRIBE" with
      | Some v when v <> "" -> v
      | _ -> (
        try
          let ic =
            Unix.open_process_in "git describe --always --dirty 2>/dev/null"
          in
          let line = try input_line ic with End_of_file -> "" in
          match (Unix.close_process_in ic, line) with
          | Unix.WEXITED 0, line when line <> "" -> line
          | _ -> "unknown"
        with Unix.Unix_error _ | Sys_error _ -> "unknown"))
  in
  fun () -> Lazy.force version

(* ------------------------------------------------------------------ *)
(* Recording.                                                          *)

let recording (inner : Sched.t) =
  let log = ref [] in
  let observe ~time ~pid =
    log := Step pid :: !log;
    inner.Sched.observe ~time ~pid
  in
  ( { inner with Sched.observe },
    fun () -> List.rev !log )

let make_cert ?(subject = Json.Null) ?(sched = "?") ?seed ?(max_steps = 0)
    ~message ~initial ~final decisions =
  {
    format = 1;
    subject;
    sched;
    seed;
    max_steps;
    message;
    version = git_version ();
    initial;
    final;
    decisions;
  }

let record ?subject ?seed ?max_steps ~sched config =
  let sched', log = recording sched in
  (* The [repro.record] phase brackets only the certificate work — the
     two digests and the cert build — so it isolates recording overhead
     from the run it observes. *)
  let tok = Lepower_prof.Phase.enter ph_record in
  let initial = Fingerprint.digest config in
  Lepower_prof.Phase.leave tok;
  let outcome = Engine.run ?max_steps ~sched:sched' config in
  let tok = Lepower_prof.Phase.enter ph_record in
  let cert =
    make_cert ?subject ~sched:sched.Sched.name ?seed
      ?max_steps:(Some (Option.value ~default:1_000_000 max_steps))
      ~message:"" ~initial
      ~final:(Fingerprint.digest outcome.Engine.final)
      (log ())
  in
  Lepower_prof.Phase.leave tok;
  (outcome, cert)

(* ------------------------------------------------------------------ *)
(* Replay.                                                             *)

type applied = {
  final : Engine.config;
  applied : decision list;
  skipped : int;
}

let apply ?(strict = true) config decisions =
  Lepower_obs.Metrics.incr m_replays;
  let inapplicable idx d enabled =
    Fmt.str "decision %d (%a) is not applicable: enabled = {%s}" idx
      Decision.pp d
      (String.concat ", " (List.map string_of_int enabled))
  in
  let running config pid =
    pid >= 0
    && pid < Array.length config.Engine.procs
    && Proc.is_running config.Engine.procs.(pid)
  in
  let rec go config applied skipped idx = function
    | [] -> Ok { final = config; applied = List.rev applied; skipped }
    | d :: rest ->
      let applicable =
        match d with
        | Step pid | Crash pid | Lose pid -> running config pid
        | Stick loc -> Memory.Store.spec_of config.Engine.store loc <> None
      in
      if not applicable then
        if strict then Error (inapplicable idx d (Engine.enabled config))
        else go config applied (skipped + 1) (idx + 1) rest
      else
        let config' =
          match d with
          | Step pid -> Engine.step config pid
          | Crash pid -> Engine.crash config pid
          | Lose pid -> Engine.step_lost config pid
          | Stick loc ->
            { config with
              Engine.store = Memory.Store.freeze config.Engine.store loc }
        in
        go config' (d :: applied) skipped (idx + 1) rest
  in
  go config [] 0 0 decisions

let of_decisions ?subject ?sched ?seed ?max_steps ~message config decisions =
  match apply ~strict:true config decisions with
  | Error e -> invalid_arg ("Repro.of_decisions: " ^ e)
  | Ok { final; _ } ->
    make_cert ?subject ?sched ?seed ?max_steps ~message
      ~initial:(Fingerprint.digest config)
      ~final:(Fingerprint.digest final)
      decisions

let replay t config =
  let initial = Fingerprint.digest config in
  if not (String.equal initial t.initial) then
    Error
      (Printf.sprintf
         "initial fingerprint mismatch: certificate %s, rebuilt instance %s \
          (wrong subject, parameters, or code version %s)"
         t.initial initial t.version)
  else
    match apply ~strict:true config t.decisions with
    | Error e -> Error ("replay diverged: " ^ e)
    | Ok { final; _ } ->
      let digest = Fingerprint.digest final in
      if String.equal digest t.final then Ok final
      else
        Error
          (Printf.sprintf
             "final fingerprint mismatch: certificate %s, replay %s" t.final
             digest)

(* ------------------------------------------------------------------ *)
(* Shrinking: delta debugging over the decision log.                   *)

type shrink_stats = { attempts : int; original : int; shrunk : int }

let drop_nth ds i = List.filteri (fun j _ -> j <> i) ds

(* Classic ddmin (Zeller & Hildebrandt): try removing chunks at
   increasing granularity; [test] returns the {e effective} decision list
   of a still-failing candidate (lenient replay also sheds decisions that
   became inapplicable), or [None]. *)
let ddmin test ds =
  let rec loop ds n =
    let len = List.length ds in
    if len < 2 || n > len then ds
    else
      let chunk = max 1 (len / n) in
      let rec complements i =
        if i >= n then None
        else
          let lo = i * chunk in
          let hi = if i = n - 1 then len else min len (lo + chunk) in
          if hi <= lo then complements (i + 1)
          else
            let cand = List.filteri (fun j _ -> j < lo || j >= hi) ds in
            match test cand with
            | Some smaller -> Some smaller
            | None -> complements (i + 1)
      in
      match complements 0 with
      | Some smaller -> loop smaller (max (n - 1) 2)
      | None -> if n >= len then ds else loop ds (min len (n * 2))
  in
  loop ds 2

(* Drop each adversary decision — crash, lost write, stuck-at —
   individually; restart the scan after every success (a removal can
   make others removable).  Keeps the fault set minimal: a surviving
   fault decision is one the failure actually needs. *)
let adversary_pass test ds =
  let rec go i ds =
    if i >= List.length ds then ds
    else
      match List.nth ds i with
      | Step _ -> go (i + 1) ds
      | Crash _ | Lose _ | Stick _ -> (
        match test (drop_nth ds i) with
        | Some smaller -> go 0 smaller
        | None -> go (i + 1) ds)
  in
  go 0 ds

(* Drop every decision of one pid at once — merging that process out of
   the schedule entirely.  The big first cut for failures that only need
   a few of the participants. *)
let pid_pass test ds =
  let pids ds = List.sort_uniq compare (List.filter_map Decision.pid ds) in
  let rec go tried ds =
    let next =
      List.find_opt (fun pid -> not (List.mem pid tried)) (pids ds)
    in
    match next with
    | None -> ds
    | Some pid -> (
      let cand = List.filter (fun d -> Decision.pid d <> Some pid) ds in
      if List.length cand = List.length ds then go (pid :: tried) ds
      else
        match test cand with
        | Some smaller -> go (pid :: tried) smaller
        | None -> go (pid :: tried) ds)
  in
  go [] ds

let shrink ?(budget = 4_000) ~failing ~config0 t =
  Lepower_obs.Span.with_span "repro.shrink"
    ~args:[ ("decisions", Json.Int (List.length t.decisions)) ]
  @@ fun () ->
  let attempts = ref 0 in
  let test ds =
    if !attempts >= budget then None
    else begin
      incr attempts;
      Lepower_obs.Metrics.incr m_shrink_attempts;
      match apply ~strict:false config0 ds with
      | Error _ -> None
      | Ok { final; applied; _ } ->
        if failing (Engine.Config_view.of_config final) then Some applied
        else None
    end
  in
  let original = List.length t.decisions in
  match test t.decisions with
  | None ->
    (* The recorded schedule does not fail under this predicate (or the
       budget is 0): nothing sound to shrink. *)
    (t, { attempts = !attempts; original; shrunk = original })
  | Some effective ->
    let rec fixpoint ds =
      let ds' = ddmin test (adversary_pass test (pid_pass test ds)) in
      if List.length ds' < List.length ds && !attempts < budget then
        fixpoint ds'
      else ds'
    in
    let shrunk = fixpoint effective in
    let cert =
      of_decisions ~subject:t.subject ~sched:t.sched ?seed:t.seed
        ~max_steps:t.max_steps ~message:t.message config0 shrunk
    in
    (cert, { attempts = !attempts; original; shrunk = List.length shrunk })

(* ------------------------------------------------------------------ *)
(* Serialization: one strict Lepower_obs.Json document.                *)

let to_json t =
  Json.Obj
    [
      ("kind", Json.String "lepower-repro-cert");
      ("format", Json.Int t.format);
      ("subject", t.subject);
      ("sched", Json.String t.sched);
      ("seed", match t.seed with Some s -> Json.Int s | None -> Json.Null);
      ("max_steps", Json.Int t.max_steps);
      ("message", Json.String t.message);
      ("version", Json.String t.version);
      ("initial", Json.String t.initial);
      ("final", Json.String t.final);
      ("decisions", Json.List (List.map Decision.to_json t.decisions));
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "certificate is missing %S" name)
  in
  let string name =
    let* v = field name in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "certificate field %S is not a string" name)
  in
  let int name =
    let* v = field name in
    match v with
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "certificate field %S is not an int" name)
  in
  let* kind = string "kind" in
  if kind <> "lepower-repro-cert" then
    Error (Printf.sprintf "not a repro certificate (kind %S)" kind)
  else
    let* format = int "format" in
    if format <> 1 then
      Error (Printf.sprintf "unsupported certificate format %d" format)
    else
      let* subject = field "subject" in
      let* sched = string "sched" in
      let* seed =
        let* v = field "seed" in
        match v with
        | Json.Null -> Ok None
        | Json.Int i -> Ok (Some i)
        | _ -> Error "certificate field \"seed\" is not an int or null"
      in
      let* max_steps = int "max_steps" in
      let* message = string "message" in
      let* version = string "version" in
      let* initial = string "initial" in
      let* final = string "final" in
      let* decisions =
        let* v = field "decisions" in
        match v with
        | Json.List ds ->
          List.fold_left
            (fun acc d ->
              let* acc = acc in
              let* d = Decision.of_json d in
              Ok (d :: acc))
            (Ok []) ds
          |> Result.map List.rev
        | _ -> Error "certificate field \"decisions\" is not a list"
      in
      Ok
        {
          format;
          subject;
          sched;
          seed;
          max_steps;
          message;
          version;
          initial;
          final;
          decisions;
        }

let save path t = Lepower_obs.Export.write_json path (to_json t)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match Json.of_string contents with
    | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
    | Ok json -> of_json json)
