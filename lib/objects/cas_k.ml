module Value = Memory.Value
module Program = Runtime.Program

let bottom = Value.sym "_|_"
let value i = Value.int i

let alphabet ~k =
  if k < 1 then invalid_arg "Cas_k.alphabet: k must be >= 1";
  bottom :: List.init (k - 1) value

let cas_op = Op_codec.cas_op

(* Alphabet membership: one hash probe per value, table built per spec. *)
module Sigma_set = Hashtbl.Make (Value)

let generic_spec ~values ~init =
  let k = List.length values in
  let sigma = Sigma_set.create k in
  List.iter (fun v -> Sigma_set.replace sigma v ()) values;
  let in_sigma v = Sigma_set.mem sigma v in
  if not (in_sigma init) then
    invalid_arg "Cas_k.generic_spec: init outside the alphabet";
  let apply ~pid:_ state op =
    match Op_codec.decode_cas op with
    | Some (expected, desired) ->
      if not (in_sigma expected && in_sigma desired) then
        Error
          (Printf.sprintf "cas(%d): value outside the alphabet in %s" k
             (Value.to_string op))
      else if Value.equal state expected then Ok (desired, state)
      else Ok (state, state)
    | None -> Error ("cas: bad operation " ^ Value.to_string op)
  in
  Memory.Spec.make ~type_name:(Printf.sprintf "cas(%d)" k) ~init ~apply

let spec ~k = generic_spec ~values:(alphabet ~k) ~init:bottom

let cas loc ~expected ~desired = Program.op loc (cas_op ~expected ~desired)
let read loc = cas loc ~expected:bottom ~desired:bottom

let succeeded ~previous ~expected ~desired =
  Value.equal previous expected && not (Value.equal expected desired)
