module Json = Lepower_obs.Json
module Engine = Runtime.Engine
module Election = Protocols.Election

type resolved = {
  name : string;
  config : Engine.config;
  failing : Engine.Config_view.t -> string option;
}

(* ------------------------------------------------------------------ *)
(* Builders.                                                           *)

let election ~protocol ~k ~n ?(crashed = []) () =
  Json.Obj
    ([
       ("kind", Json.String "election");
       ("protocol", Json.String protocol);
       ("k", Json.Int k);
       ("n", Json.Int n);
     ]
    @
    match crashed with
    | [] -> []
    | pids -> [ ("crashed", Json.List (List.map (fun p -> Json.Int p) pids)) ])

let fixture ?n ?(flip = false) name =
  Json.Obj
    ([ ("kind", Json.String "fixture"); ("name", Json.String name) ]
    @ (match n with None -> [] | Some n -> [ ("n", Json.Int n) ])
    @ if flip then [ ("flip", Json.Bool true) ] else [])

(* ------------------------------------------------------------------ *)
(* Resolution.                                                         *)

let of_target (t : Lint.target) =
  {
    name = t.Lint.name;
    config = Engine.init (Memory.Store.create t.Lint.bindings) t.Lint.programs;
    failing = Lint.failing t;
  }

let election_instance ~protocol ~k ~n =
  match protocol with
  | "perm" -> Ok (Protocols.Permutation_election.instance ~k ~n)
  | "cas" -> Ok (Protocols.Cas_election.instance ~k ~n)
  | "bcl" -> Ok (Protocols.Bcl_election.instance ~k ~n)
  | "multi" ->
    Ok (Protocols.Multi_election.instance ~ks:[ k; max 2 (k - 1) ] ~n)
  | p -> Error (Printf.sprintf "unknown election protocol %S" p)

let of_election instance ~crashed =
  let config =
    List.fold_left
      (fun c pid -> Engine.crash c pid)
      (Election.config instance) crashed
  in
  let failing view =
    match Election.check_partial instance view with
    | Ok () -> None
    | Error m -> Some m
  in
  { name = instance.Election.name; config; failing }

let ( let* ) = Result.bind

let str_field name json =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "subject field %S is not a string" name)
  | None -> Error (Printf.sprintf "subject is missing %S" name)

let int_field name json =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "subject field %S is not an int" name)
  | None -> Error (Printf.sprintf "subject is missing %S" name)

let resolve json =
  match json with
  | Json.Null -> Error "certificate has no subject (recorded without one)"
  | _ -> (
    let* kind = str_field "kind" json in
    match kind with
    | "election" ->
      let* protocol = str_field "protocol" json in
      let* k = int_field "k" json in
      let* n = int_field "n" json in
      let* crashed =
        match Json.member "crashed" json with
        | None -> Ok []
        | Some (Json.List pids) ->
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              match p with
              | Json.Int pid -> Ok (pid :: acc)
              | _ -> Error "subject field \"crashed\" holds a non-int")
            (Ok []) pids
          |> Result.map List.rev
        | Some _ -> Error "subject field \"crashed\" is not a list"
      in
      let* instance = election_instance ~protocol ~k ~n in
      Ok (of_election instance ~crashed)
    | "fixture" -> (
      let* name = str_field "name" json in
      let n =
        match Json.member "n" json with Some (Json.Int n) -> Some n | _ -> None
      in
      let flip =
        match Json.member "flip" json with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      match name with
      | "broken-swmr" -> Ok (of_target (Lint.broken_swmr_fixture ~flip ()))
      | "broken-cas" -> Ok (of_target (Lint.broken_cas_fixture ?n ~flip ()))
      | "spin" -> Ok (of_target (Lint.spin_fixture ()))
      | f -> Error (Printf.sprintf "unknown fixture %S" f))
    | k -> Error (Printf.sprintf "unknown subject kind %S" k))
