(* Tests for the object zoo: sequential semantics of every object and
   key concurrent properties under exhaustive interleaving. *)

module Value = Memory.Value
module Program = Runtime.Program
module Engine = Runtime.Engine
module Explore = Runtime.Explore
module Sched = Runtime.Sched

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let run_seq bindings prog =
  Program.run_sequential (Memory.Store.create bindings) ~pid:0
    (Program.complete prog)

let expect_value bindings prog expected =
  match run_seq bindings prog with
  | Ok (_, v) -> Alcotest.check value "result" expected v
  | Error e -> Alcotest.fail e

(* --- register --- *)

let test_register_rw () =
  let open Program in
  expect_value
    [ ("r", Objects.Register.mwmr ~init:(Value.int 7) ()) ]
    (let* before = Objects.Register.read "r" in
     let* () = Objects.Register.write "r" (Value.int 9) in
     let* after = Objects.Register.read "r" in
     return (Value.pair before after))
    (Value.pair (Value.int 7) (Value.int 9))

let test_swmr_ownership () =
  let store =
    Memory.Store.create [ ("r", Objects.Register.swmr ~owner:1 ()) ]
  in
  (match
     Memory.Store.apply store ~pid:0 "r" (Objects.Register.write_op Value.unit)
   with
  | Ok _ -> Alcotest.fail "non-owner write accepted"
  | Error _ -> ());
  (match
     Memory.Store.apply store ~pid:1 "r" (Objects.Register.write_op Value.unit)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Memory.Store.apply store ~pid:0 "r" Objects.Register.read_op with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("reader rejected: " ^ e)

(* --- cas --- *)

let test_cas_semantics () =
  let open Program in
  let bot = Objects.Cas_k.bottom in
  expect_value
    [ ("C", Objects.Cas_k.spec ~k:3) ]
    (let* p1 = Objects.Cas_k.cas "C" ~expected:bot ~desired:(Value.int 1) in
     let* p2 = Objects.Cas_k.cas "C" ~expected:bot ~desired:(Value.int 0) in
     let* p3 =
       Objects.Cas_k.cas "C" ~expected:(Value.int 1) ~desired:(Value.int 0)
     in
     let* p4 = Objects.Cas_k.read "C" in
     return (Value.list [ p1; p2; p3; p4 ]))
    (Value.list [ bot; Value.int 1; Value.int 1; Value.int 0 ])

let test_cas_bounded_alphabet () =
  let store = Memory.Store.create [ ("C", Objects.Cas_k.spec ~k:3) ] in
  match
    Memory.Store.apply store ~pid:0 "C"
      (Objects.Cas_k.cas_op ~expected:Objects.Cas_k.bottom
         ~desired:(Value.int 5))
  with
  | Ok _ -> Alcotest.fail "value outside Sigma accepted"
  | Error _ -> ()

let test_cas_succeeded () =
  let bot = Objects.Cas_k.bottom in
  Alcotest.(check bool) "real success" true
    (Objects.Cas_k.succeeded ~previous:bot ~expected:bot ~desired:(Value.int 0));
  Alcotest.(check bool) "failed" false
    (Objects.Cas_k.succeeded ~previous:(Value.int 1) ~expected:bot
       ~desired:(Value.int 0));
  Alcotest.(check bool) "no-change cas never succeeds" false
    (Objects.Cas_k.succeeded ~previous:bot ~expected:bot ~desired:bot)

let test_cas_alphabet_size () =
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "alphabet k=%d" k)
        k
        (List.length (Objects.Cas_k.alphabet ~k)))
    [ 1; 2; 3; 7 ]

(* Reference semantics of [Cas_k.generic_spec]: membership by scanning
   the alphabet list.  The spec's hash table must accept and reject
   exactly the same operations, with the same error text. *)
let reference_cas_apply ~values state op =
  let k = List.length values in
  let in_sigma v = List.exists (Value.equal v) values in
  match Objects.Op_codec.decode_cas op with
  | Some (expected, desired) ->
    if not (in_sigma expected && in_sigma desired) then
      Error
        (Printf.sprintf "cas(%d): value outside the alphabet in %s" k
           (Value.to_string op))
    else if Value.equal state expected then Ok (desired, state)
    else Ok (state, state)
  | None -> Error ("cas: bad operation " ^ Value.to_string op)

let test_cas_membership_matches_list () =
  let check_spec name values (spec : Memory.Spec.t) =
    let k = List.length values in
    let probes =
      values
      @ List.init (k + 2) (fun i -> Value.int (i - 1))
      @ [
          Objects.Cas_k.bottom; Value.sym "x"; Value.sym "_|_ "; Value.unit;
          Value.bool true; Value.pair (Value.int 0) (Value.int 1);
        ]
    in
    let ops =
      Value.sym "read" :: Value.pair (Value.sym "write") (Value.int 0)
      :: List.concat_map
           (fun expected ->
             List.map
               (fun desired -> Objects.Cas_k.cas_op ~expected ~desired)
               probes)
           probes
    in
    List.iter
      (fun state ->
        List.iter
          (fun op ->
            let got = Memory.Spec.apply spec ~pid:0 state op in
            if got <> reference_cas_apply ~values state op then
              Alcotest.failf "%s: %s from state %s disagrees with the list"
                name (Value.to_string op) (Value.to_string state))
          ops)
      values
  in
  List.iter
    (fun k ->
      check_spec
        (Printf.sprintf "cas(%d)" k)
        (Objects.Cas_k.alphabet ~k) (Objects.Cas_k.spec ~k))
    [ 2; 3; 12; 25 ];
  (* The alphabets the consensus protocols pass: ⊥ plus their inputs. *)
  let custom inputs =
    Objects.Cas_k.bottom :: List.sort_uniq Value.compare inputs
  in
  let cons_inputs = [ Value.int 10; Value.sym "b"; Value.int 10 ] in
  List.iter
    (fun (loc, spec) ->
      check_spec ("consensus " ^ loc) (custom cons_inputs) spec)
    (Protocols.Consensus.from_cas ~inputs:cons_inputs).Protocols.Consensus
      .bindings;
  let set_inputs = List.init 7 (fun i -> Value.int (100 + i)) in
  List.iter
    (fun (loc, spec) ->
      check_spec ("set-consensus " ^ loc) (custom set_inputs) spec)
    (Protocols.Set_consensus.from_groups ~k:3 ~inputs:set_inputs)
      .Protocols.Set_consensus.bindings;
  let pairs = [ Objects.Cas_k.bottom; Value.pair (Value.int 1) (Value.sym "a") ] in
  check_spec "pair alphabet" pairs
    (Objects.Cas_k.generic_spec ~values:pairs ~init:Objects.Cas_k.bottom);
  Alcotest.check_raises "init outside the alphabet"
    (Invalid_argument "Cas_k.generic_spec: init outside the alphabet")
    (fun () ->
      ignore
        (Objects.Cas_k.generic_spec ~values:pairs
           ~init:(Value.pair (Value.int 1) (Value.sym "b"))))

(* qcheck: the register's responses always report the pre-state and the
   state never leaves the alphabet. *)
let prop_cas_stays_in_alphabet =
  let k = 4 in
  let sigma = Objects.Cas_k.alphabet ~k in
  let arb_ops =
    QCheck.list_of_size (QCheck.Gen.int_range 1 20)
      (QCheck.pair (QCheck.int_bound (k - 1)) (QCheck.int_bound (k - 1)))
  in
  QCheck.Test.make ~name:"cas state stays in alphabet" ~count:100 arb_ops
    (fun ops ->
      let spec = Objects.Cas_k.spec ~k in
      let final =
        List.fold_left
          (fun state (i, j) ->
            let expected = List.nth sigma i and desired = List.nth sigma j in
            match
              Memory.Spec.apply spec ~pid:0 state
                (Objects.Cas_k.cas_op ~expected ~desired)
            with
            | Ok (state', prev) ->
              assert (Value.equal prev state);
              state'
            | Error _ -> state)
          Objects.Cas_k.bottom ops
      in
      List.exists (Value.equal final) sigma)

(* --- test&set --- *)

let test_testset_winner_unique () =
  let open Program in
  let prog _ =
    complete
      (let* won = Objects.Testset.test_and_set "T" in
       return (Value.bool won))
  in
  let store = Memory.Store.create [ ("T", Objects.Testset.spec ()) ] in
  let config = Engine.init store [ prog 0; prog 1; prog 2 ] in
  match
    Explore.check_all config (fun final ->
        let winners =
          Engine.Config_view.decision_values final
          |> List.filter (fun v -> v = Value.bool true)
        in
        if List.length winners = 1 then Ok () else Error "winner not unique")
  with
  | Ok stats ->
    Alcotest.(check int) "3! interleavings" 6 stats.Explore.terminals
  | Error v -> Alcotest.fail v.Explore.message

let test_testset_reset () =
  let open Program in
  expect_value
    [ ("T", Objects.Testset.spec ()) ]
    (let* w1 = Objects.Testset.test_and_set "T" in
     let* () = Objects.Testset.reset "T" in
     let* w2 = Objects.Testset.test_and_set "T" in
     let* w3 = Objects.Testset.test_and_set "T" in
     return (Value.list [ Value.bool w1; Value.bool w2; Value.bool w3 ]))
    (Value.list [ Value.bool true; Value.bool true; Value.bool false ])

(* --- fetch&add --- *)

let test_fetchadd_modulus () =
  let open Program in
  expect_value
    [ ("F", Objects.Fetchadd.spec ~modulus:3 ()) ]
    (let* a = Objects.Fetchadd.fetch_add "F" 1 in
     let* b = Objects.Fetchadd.fetch_add "F" 1 in
     let* c = Objects.Fetchadd.fetch_add "F" 1 in
     let* d = Objects.Fetchadd.read "F" in
     return (Value.list [ Value.int a; Value.int b; Value.int c; Value.int d ]))
    (Value.list [ Value.int 0; Value.int 1; Value.int 2; Value.int 0 ])

let test_fetchadd_negative () =
  let open Program in
  expect_value
    [ ("F", Objects.Fetchadd.spec ~modulus:5 ()) ]
    (let* _ = Objects.Fetchadd.fetch_add "F" (-2) in
     let* v = Objects.Fetchadd.read "F" in
     return (Value.int v))
    (Value.int 3)

(* --- swap --- *)

let test_swap () =
  let open Program in
  expect_value
    [ ("S", Objects.Swap_reg.spec ~init:(Value.int 0) ()) ]
    (let* a = Objects.Swap_reg.swap "S" (Value.int 5) in
     let* b = Objects.Swap_reg.swap "S" (Value.int 6) in
     return (Value.pair a b))
    (Value.pair (Value.int 0) (Value.int 5))

(* --- queue --- *)

let test_queue_fifo () =
  let open Program in
  expect_value
    [ ("Q", Objects.Queue_obj.spec ()) ]
    (let* () = Objects.Queue_obj.enq "Q" (Value.int 1) in
     let* () = Objects.Queue_obj.enq "Q" (Value.int 2) in
     let* a = Objects.Queue_obj.deq "Q" in
     let* b = Objects.Queue_obj.deq "Q" in
     let* c = Objects.Queue_obj.deq "Q" in
     return (Value.list [ Value.option a; Value.option b; Value.option c ]))
    (Value.list
       [
         Value.option (Some (Value.int 1));
         Value.option (Some (Value.int 2));
         Value.option None;
       ])

let prop_queue_fifo_random =
  QCheck.Test.make ~name:"queue preserves FIFO order" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 15) QCheck.small_int)
    (fun items ->
      let spec = Objects.Queue_obj.spec () in
      let state =
        List.fold_left
          (fun s i ->
            match
              Memory.Spec.apply spec ~pid:0 s
                (Objects.Queue_obj.enq_op (Value.int i))
            with
            | Ok (s', _) -> s'
            | Error _ -> s)
          spec.Memory.Spec.init items
      in
      let rec drain s acc =
        match Memory.Spec.apply spec ~pid:0 s Objects.Queue_obj.deq_op with
        | Ok (s', r) -> (
          match Value.as_option r with
          | Some v -> drain s' (Value.as_int v :: acc)
          | None -> List.rev acc)
        | Error _ -> List.rev acc
      in
      drain state [] = items)

(* --- sticky --- *)

let test_sticky_freezes () =
  let open Program in
  expect_value
    [ ("S", Objects.Sticky.spec ()) ]
    (let* a = Objects.Sticky.sticky_write "S" (Value.int 1) in
     let* b = Objects.Sticky.sticky_write "S" (Value.int 2) in
     return (Value.pair a b))
    (Value.pair (Value.int 1) (Value.int 1))

let test_sticky_elect_agreement () =
  let prog pid =
    Program.complete (Objects.Sticky.elect "S" ~me:(Value.int pid))
  in
  let store = Memory.Store.create [ ("S", Objects.Sticky.spec ()) ] in
  let config = Engine.init store [ prog 0; prog 1; prog 2 ] in
  match
    Explore.check_all config (fun final ->
        let decisions = Engine.Config_view.distinct_decisions final in
        if List.length decisions = 1 then Ok () else Error "disagreement")
  with
  | Ok _ -> ()
  | Error v -> Alcotest.fail v.Explore.message

(* --- rmw --- *)

let test_rmw_value_set_enforced () =
  let spec =
    Objects.Rmw.spec ~type_name:"bad"
      ~values:[ Value.int 0; Value.int 1 ]
      ~init:(Value.int 0)
      ~ops:
        [ { Objects.Rmw.name = "escape"; transform = (fun _ -> Value.int 9) } ]
  in
  let store = Memory.Store.create [ ("R", spec) ] in
  match
    Memory.Store.apply store ~pid:0 "R" (Objects.Rmw.op_encoding "escape")
  with
  | Ok _ -> Alcotest.fail "escape accepted"
  | Error _ -> ()

let test_rmw_invoke () =
  let spec =
    Objects.Rmw.spec ~type_name:"flip"
      ~values:[ Value.bool false; Value.bool true ]
      ~init:(Value.bool false)
      ~ops:
        [
          {
            Objects.Rmw.name = "flip";
            transform = (fun v -> Value.bool (not (Value.as_bool v)));
          };
        ]
  in
  let open Program in
  expect_value
    [ ("R", spec) ]
    (let* a = Objects.Rmw.invoke "R" "flip" in
     let* b = Objects.Rmw.invoke "R" "flip" in
     let* c = Objects.Rmw.read "R" in
     return (Value.list [ a; b; c ]))
    (Value.list [ Value.bool false; Value.bool true; Value.bool false ])

(* --- ll/sc --- *)

let llsc_bindings () =
  [ ("L", Objects.Llsc.spec ~init:(Value.int 0) ()) ]

let test_llsc_basic () =
  let open Program in
  expect_value (llsc_bindings ())
    (let* v = Objects.Llsc.ll "L" in
     let* ok = Objects.Llsc.sc "L" (Value.int 5) in
     let* now = Objects.Llsc.read "L" in
     return (Value.list [ v; Value.bool ok; now ]))
    (Value.list [ Value.int 0; Value.bool true; Value.int 5 ])

let test_llsc_without_link_fails () =
  let open Program in
  expect_value (llsc_bindings ())
    (let* ok = Objects.Llsc.sc "L" (Value.int 5) in
     let* now = Objects.Llsc.read "L" in
     return (Value.pair (Value.bool ok) now))
    (Value.pair (Value.bool false) (Value.int 0))

let test_llsc_intervening_sc_invalidates () =
  (* p0 links; p1 links and stores; p0's sc must fail even though it
     would write the same value — no ABA. *)
  let store = Memory.Store.create (llsc_bindings ()) in
  let apply store pid op =
    match Memory.Store.apply store ~pid "L" op with
    | Ok (s, v) -> (s, v)
    | Error e -> Alcotest.fail e
  in
  let store, _ = apply store 0 Objects.Llsc.ll_op in
  let store, _ = apply store 1 Objects.Llsc.ll_op in
  let store, r1 = apply store 1 (Objects.Llsc.sc_op (Value.int 0)) in
  Alcotest.check value "p1 sc succeeds" (Value.bool true) r1;
  let _, r0 = apply store 0 (Objects.Llsc.sc_op (Value.int 7)) in
  (* Value is back to 0 (ABA situation), but p0's link is gone. *)
  Alcotest.check value "p0 sc fails despite same value" (Value.bool false) r0

let test_llsc_bounded_domain () =
  let store =
    Memory.Store.create
      [
        ( "L",
          Objects.Llsc.spec
            ~values:[ Value.int 0; Value.int 1 ]
            ~init:(Value.int 0) () );
      ]
  in
  match
    Memory.Store.apply store ~pid:0 "L" (Objects.Llsc.sc_op (Value.int 9))
  with
  | Ok _ -> Alcotest.fail "out-of-domain sc accepted"
  | Error _ -> ()

let test_llsc_unique_winner () =
  (* n processes ll then sc: exactly one sc succeeds. *)
  let prog _ =
    let open Program in
    complete
      (let* _ = Objects.Llsc.ll "L" in
       let* ok = Objects.Llsc.sc "L" (Value.int 1) in
       return (Value.bool ok))
  in
  let store = Memory.Store.create (llsc_bindings ()) in
  let config = Engine.init store [ prog 0; prog 1; prog 2 ] in
  match
    Explore.check_all config (fun final ->
        let winners =
          Engine.Config_view.decision_values final
          |> List.filter (fun v -> v = Value.bool true)
        in
        (* At least one sc must succeed (the last ll before the first sc
           is always still linked), and never two in a row without a
           fresh ll. *)
        if List.length winners >= 1 then Ok () else Error "no winner")
  with
  | Ok _ -> ()
  | Error v -> Alcotest.fail v.Explore.message

(* --- zoo --- *)

let test_zoo_specs_accept_their_ops () =
  List.iter
    (fun (entry : Objects.Zoo.entry) ->
      List.iter
        (fun op ->
          match
            Memory.Spec.apply entry.Objects.Zoo.spec ~pid:0
              entry.Objects.Zoo.spec.Memory.Spec.init op
          with
          | Ok _ -> ()
          | Error e ->
            Alcotest.fail
              (Printf.sprintf "%s rejected %s: %s" entry.Objects.Zoo.name
                 (Value.to_string op) e))
        entry.Objects.Zoo.ops)
    (Objects.Zoo.all ())

let () =
  Alcotest.run "objects"
    [
      ( "register",
        [
          Alcotest.test_case "read/write" `Quick test_register_rw;
          Alcotest.test_case "swmr ownership" `Quick test_swmr_ownership;
        ] );
      ( "cas",
        [
          Alcotest.test_case "semantics" `Quick test_cas_semantics;
          Alcotest.test_case "bounded alphabet" `Quick test_cas_bounded_alphabet;
          Alcotest.test_case "succeeded predicate" `Quick test_cas_succeeded;
          Alcotest.test_case "alphabet size" `Quick test_cas_alphabet_size;
          Alcotest.test_case "membership table matches the list" `Quick
            test_cas_membership_matches_list;
          QCheck_alcotest.to_alcotest prop_cas_stays_in_alphabet;
        ] );
      ( "testset",
        [
          Alcotest.test_case "unique winner (exhaustive)" `Quick
            test_testset_winner_unique;
          Alcotest.test_case "reset" `Quick test_testset_reset;
        ] );
      ( "fetchadd",
        [
          Alcotest.test_case "modulus wraps" `Quick test_fetchadd_modulus;
          Alcotest.test_case "negative add" `Quick test_fetchadd_negative;
        ] );
      ("swap", [ Alcotest.test_case "swap returns old" `Quick test_swap ]);
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          QCheck_alcotest.to_alcotest prop_queue_fifo_random;
        ] );
      ( "sticky",
        [
          Alcotest.test_case "freezes first write" `Quick test_sticky_freezes;
          Alcotest.test_case "elect agreement (exhaustive)" `Quick
            test_sticky_elect_agreement;
        ] );
      ( "rmw",
        [
          Alcotest.test_case "value set enforced" `Quick
            test_rmw_value_set_enforced;
          Alcotest.test_case "invoke" `Quick test_rmw_invoke;
        ] );
      ( "llsc",
        [
          Alcotest.test_case "ll then sc" `Quick test_llsc_basic;
          Alcotest.test_case "sc without link fails" `Quick
            test_llsc_without_link_fails;
          Alcotest.test_case "no ABA" `Quick
            test_llsc_intervening_sc_invalidates;
          Alcotest.test_case "bounded domain" `Quick test_llsc_bounded_domain;
          Alcotest.test_case "winner exists (exhaustive)" `Quick
            test_llsc_unique_winner;
        ] );
      ( "zoo",
        [
          Alcotest.test_case "specs accept their op universe" `Quick
            test_zoo_specs_accept_their_ops;
        ] );
    ]
