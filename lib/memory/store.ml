module Smap = Map.Make (String)

type t = {
  specs : Spec.t Smap.t;
  states : Value.t Smap.t;
  keys : string array;
      (* The locations in sorted order, cached at [add] time.  [apply]/
         [poke]/[freeze] never change the location set, so the hot paths
         ([locs], the fingerprint folds) read this array instead of
         re-walking the map spine. *)
}

let empty = { specs = Smap.empty; states = Smap.empty; keys = [||] }

let add t loc spec =
  let specs = Smap.add loc spec t.specs in
  {
    specs;
    states = Smap.add loc spec.Spec.init t.states;
    keys = Array.of_seq (Seq.map fst (Smap.to_seq specs));
  }

let create bindings =
  List.fold_left (fun t (loc, spec) -> add t loc spec) empty bindings

let apply t ~pid loc op =
  match Smap.find_opt loc t.specs with
  | None -> Error (Printf.sprintf "unknown location %S" loc)
  | Some spec -> (
    let state = Smap.find loc t.states in
    match Spec.apply spec ~pid state op with
    | Error _ as e -> e
    | Ok (state', res) -> Ok ({ t with states = Smap.add loc state' t.states }, res))

let peek t loc = Smap.find_opt loc t.states

let poke t loc v =
  if Smap.mem loc t.specs then { t with states = Smap.add loc v t.states }
  else invalid_arg (Printf.sprintf "Store.poke: unknown location %S" loc)

(* The stuck-at wrapper keeps the frozen state forever but still computes
   responses against it through the original spec. *)
let is_stuck spec =
  String.length spec.Spec.type_name >= 6
  && String.sub spec.Spec.type_name 0 6 = "stuck("

let frozen_spec spec =
  Spec.make
    ~type_name:(Printf.sprintf "stuck(%s)" spec.Spec.type_name)
    ~init:spec.Spec.init
    ~apply:(fun ~pid state op ->
      match Spec.apply spec ~pid state op with
      | Error _ as e -> e
      | Ok (_discarded, res) -> Ok (state, res))

let freeze t loc =
  match Smap.find_opt loc t.specs with
  | None -> invalid_arg (Printf.sprintf "Store.freeze: unknown location %S" loc)
  | Some spec ->
    if is_stuck spec then t
    else { t with specs = Smap.add loc (frozen_spec spec) t.specs }

let spec_of t loc = Smap.find_opt loc t.specs
let locs t = Array.to_list t.keys
let compare_states a b = Smap.compare Value.compare a.states b.states
let state_bindings t = Smap.bindings t.states
let fold_states f t acc = Smap.fold f t.states acc

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (loc, v) -> Fmt.pf ppf "%s = %a" loc Value.pp v))
    (Smap.bindings t.states)

(* ------------------------------------------------------------------ *)
(* Mutable arena backing with an O(1)-amortized undo journal.          *)

module Arena = struct
  type store = t

  (* One entry per overwritten state: the location id and its old value. *)
  type entry = J_state of int * Value.t

  type t = {
    names : string array;  (* sorted — id order IS sorted-location order *)
    index : (string, int) Hashtbl.t;
    specs : Spec.t array;
    states : Value.t array;
    mutable journal : entry array;
    mutable jlen : int;
    (* Scratch describing the most recent successful [apply], so callers
       maintaining incremental digests can read the single-location delta
       without re-deriving which location the operation touched. *)
    mutable last_id : int;
    mutable last_old : Value.t;
  }

  let of_store (s : store) =
    let names = Array.copy s.keys in
    let n = Array.length names in
    let index = Hashtbl.create (max 8 (2 * n)) in
    Array.iteri (fun i name -> Hashtbl.replace index name i) names;
    {
      names;
      index;
      specs = Array.map (fun name -> Smap.find name s.specs) names;
      states = Array.map (fun name -> Smap.find name s.states) names;
      journal = Array.make 64 (J_state (0, Value.Unit));
      jlen = 0;
      last_id = -1;
      last_old = Value.Unit;
    }

  let to_store a =
    let specs = ref Smap.empty and states = ref Smap.empty in
    Array.iteri
      (fun i name ->
        specs := Smap.add name a.specs.(i) !specs;
        states := Smap.add name a.states.(i) !states)
      a.names;
    { specs = !specs; states = !states; keys = Array.copy a.names }

  let n_locs a = Array.length a.names
  let mem a loc = Hashtbl.mem a.index loc
  let state_at a i = a.states.(i)

  let id_of_loc a loc =
    match Hashtbl.find a.index loc with
    | exception Not_found -> None
    | i -> Some i

  let last_id a = a.last_id
  let last_old_state a = a.last_old

  let push a e =
    (if a.jlen = Array.length a.journal then begin
       let j = Array.make (2 * a.jlen) a.journal.(0) in
       Array.blit a.journal 0 j 0 a.jlen;
       a.journal <- j
     end);
    a.journal.(a.jlen) <- e;
    a.jlen <- a.jlen + 1

  let mark a = a.jlen

  let undo_to a m =
    while a.jlen > m do
      a.jlen <- a.jlen - 1;
      let (J_state (i, v)) = a.journal.(a.jlen) in
      a.states.(i) <- v
    done

  let apply_id a ~pid i op =
    match Spec.apply a.specs.(i) ~pid a.states.(i) op with
    | Error _ as e -> e
    | Ok (state', res) ->
      let old = a.states.(i) in
      push a (J_state (i, old));
      a.states.(i) <- state';
      a.last_id <- i;
      a.last_old <- old;
      Ok res

  (* Journal + scratch exactly as [apply_id]'s Ok branch, with the spec
     transition already decided by the caller (the engine's memoized
     transition fast path).  [old] must be the current state of [i]. *)
  let commit_state a i old state' =
    push a (J_state (i, old));
    a.states.(i) <- state';
    a.last_id <- i;
    a.last_old <- old

  (* Unjournaled raw write — for callers that save and restore the old
     state themselves (the engine's stack-undo naive walk). *)
  let write_state a i v = a.states.(i) <- v

  let states_view a = a.states

  let apply a ~pid loc op =
    match Hashtbl.find a.index loc with
    | exception Not_found -> Error (Printf.sprintf "unknown location %S" loc)
    | i -> apply_id a ~pid i op

  let peek a loc =
    match Hashtbl.find a.index loc with
    | exception Not_found -> None
    | i -> Some a.states.(i)

  let state_bindings a =
    let acc = ref [] in
    for i = Array.length a.names - 1 downto 0 do
      acc := (a.names.(i), a.states.(i)) :: !acc
    done;
    !acc
end
