module Value = Memory.Value
module Trace = Runtime.Trace
module Op_codec = Objects.Op_codec

(* Which mutation family does a spec's type_name promise?  [None] for
   object types the checker has no model of. *)
let expected_family type_name =
  let has_prefix p =
    String.length type_name >= String.length p
    && String.sub type_name 0 (String.length p) = p
  in
  if String.equal type_name "swmr-reg" || String.equal type_name "mwmr-reg"
  then Some "write"
  else if has_prefix "cas(" then Some "cas"
  else if String.equal type_name "swap" then Some "swap"
  else if String.equal type_name "sticky" then Some "sticky-write"
  else if has_prefix "rmw(" then Some "rmw"
  else if String.equal type_name "queue" then Some "queue"
  else if String.equal type_name "ll/sc" then Some "ll/sc"
  else if String.equal type_name "test&set" then Some "test&set"
  else if has_prefix "fetch&add" then Some "fetch&add"
  else None

let is_register_type type_name =
  String.equal type_name "swmr-reg" || String.equal type_name "mwmr-reg"

type writer = { pid : int; value : Value.t; clock : Vclock.t }

module Smap = Map.Make (String)

(* What the rules need to know about one location, looked up once. *)
type loc_info = {
  type_name : string option;  (* spec type; [None] when unbound *)
  expected : string option;  (* mutation family the spec type promises *)
  single_writer : bool;
  init : Value.t option;
}

type ctx = {
  store : Memory.Store.t;
  declared : string list;  (* locations declared single-writer *)
  infos : loc_info Smap.t;  (* every bound location *)
}

let loc_info store declared loc =
  let type_name =
    Option.map
      (fun (s : Memory.Spec.t) -> s.Memory.Spec.type_name)
      (Memory.Store.spec_of store loc)
  in
  {
    type_name;
    expected = Option.bind type_name expected_family;
    single_writer =
      List.exists (String.equal loc) declared
      || (match type_name with Some "swmr-reg" -> true | _ -> false);
    init = Memory.Store.peek store loc;
  }

let prepare ?(single_writer = []) store =
  {
    store;
    declared = single_writer;
    infos =
      List.fold_left
        (fun m loc -> Smap.add loc (loc_info store single_writer loc) m)
        Smap.empty (Memory.Store.locs store);
  }

let info ctx loc =
  try Smap.find loc ctx.infos
  with Not_found -> loc_info ctx.store ctx.declared loc

(* Per location: the last mutation (reads-from source), every pid's most
   recent write (single-writer discipline), and the mutation families
   seen so far (op/response confusion). *)
type loc_state = {
  last_mut : writer option;
  writers : (int * Vclock.t) list;
  families : string list;
}

let fresh = { last_mut = None; writers = []; families = [] }

(* [clocks] is per pid (program order joined along reads-from edges),
   copied on write so that every state stays valid, and grown to cover
   each pid as it first steps. *)
type state = {
  clocks : Vclock.t array;
  locs : loc_state Smap.t;
  found : Finding.t list;
}

let init _ctx = { clocks = [||]; locs = Smap.empty; found = [] }

let add found f = found := f :: !found

let step ctx st (e : Trace.event) =
  let pid = e.Trace.pid and loc = e.Trace.loc in
  let info = info ctx loc in
  let found = ref st.found in
  let n = Array.length st.clocks in
  let clocks =
    if pid < n then Array.copy st.clocks
    else begin
      let grown = Array.make (pid + 1) (Vclock.make 0) in
      Array.blit st.clocks 0 grown 0 n;
      grown
    end
  in
  let clock = Vclock.tick clocks.(pid) pid in
  clocks.(pid) <- clock;
  let ls = try Smap.find loc st.locs with Not_found -> fresh in
  let kind = Op_codec.classify e.Trace.op in
  (* Reads are legal on every object family; only mutations commit a
     location to a family. *)
  let ls =
    match kind with
    | Op_codec.Other | Op_codec.Read -> ls
    | _ ->
      let fam = Op_codec.family_name kind in
      if List.exists (String.equal fam) ls.families then ls
      else begin
        (match ls.families with
        | [] -> ()
        | other :: _ ->
          add found
            (Finding.v ~rule:"op-type" ~loc
               "location driven through two operation families: %s and %s"
               other fam));
        (match info.expected, info.type_name with
        | Some want, Some tn when not (String.equal want fam) ->
          add found
            (Finding.v ~rule:"op-type" ~loc
               "%s operation on a location of object type %s (expects %s)" fam
               tn want)
        | _ -> ());
        { ls with families = fam :: ls.families }
      end
  in
  let ls =
    match kind with
    | Op_codec.Read ->
      (* Reads-from: in a linearized trace an atomic read must return
         the latest preceding mutation's published value, or the
         initial value when nothing was written yet.  Only register
         locations publish the exact value they were handed; other
         object types are replay-checked by [Bounded_check]. *)
      let registerish =
        match info.type_name with
        | Some tn -> is_register_type tn
        | None -> ls.last_mut <> None
      in
      (match ls.last_mut with
      | Some w ->
        if registerish && not (Value.equal e.Trace.result w.value) then
          add found
            (Finding.v ~rule:"reads-from" ~loc
               "t=%d p%d read %s but the latest write (p%d) published %s"
               e.Trace.time pid
               (Value.to_string e.Trace.result)
               w.pid (Value.to_string w.value));
        clocks.(pid) <- Vclock.join clock w.clock
      | None ->
        if registerish then
          Option.iter
            (fun init ->
              if not (Value.equal e.Trace.result init) then
                add found
                  (Finding.v ~rule:"reads-from" ~loc
                     "t=%d p%d read %s before any write; initial value is %s"
                     e.Trace.time pid
                     (Value.to_string e.Trace.result)
                     (Value.to_string init)))
            info.init);
      ls
    | Op_codec.Write v ->
      if not (Value.equal e.Trace.result Value.unit) then
        add found
          (Finding.v ~rule:"op-type" ~loc
             "t=%d p%d write acknowledged with %s instead of ()" e.Trace.time
             pid
             (Value.to_string e.Trace.result));
      let ls =
        if not info.single_writer then ls
        else begin
          List.iter
            (fun (p, c) ->
              if p <> pid then
                add found
                  (Finding.v ~rule:"swmr-discipline" ~loc
                     "single-writer register written by both p%d and p%d \
                      (writes are %s under happens-before)"
                     p pid
                     (if Vclock.concurrent c clock then "concurrent"
                      else "ordered")))
            ls.writers;
          {
            ls with
            writers = (pid, clock) :: List.remove_assoc pid ls.writers;
          }
        end
      in
      { ls with last_mut = Some { pid; value = v; clock } }
    | Op_codec.Cas { expected; desired } ->
      (* A cas publishes [desired] exactly when it succeeds (returns
         [expected] and changes the value). *)
      if
        Value.equal e.Trace.result expected
        && not (Value.equal expected desired)
      then { ls with last_mut = Some { pid; value = desired; clock } }
      else ls
    | Op_codec.Swap v -> { ls with last_mut = Some { pid; value = v; clock } }
    | Op_codec.Sticky_write _ | Op_codec.Rmw _ ->
      (* The published value is the operation's return contract, not its
         argument; replay in [Bounded_check] validates it. *)
      { ls with last_mut = Some { pid; value = e.Trace.result; clock } }
    | Op_codec.Ll | Op_codec.Sc _ | Op_codec.Enq _ | Op_codec.Deq
    | Op_codec.Test_and_set | Op_codec.Reset | Op_codec.Fetch_add _ ->
      (* Not register-like: these objects' responses are replay-checked
         value by value in [Bounded_check]; no reads-from source to
         track here. *)
      ls
    | Op_codec.Other -> ls
  in
  { clocks; locs = Smap.add loc ls st.locs; found = !found }

let finish _ctx st = Finding.dedup st.found

let check ?single_writer ~store trace =
  let ctx = prepare ?single_writer store in
  finish ctx (List.fold_left (step ctx) (init ctx) trace)
