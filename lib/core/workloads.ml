module Value = Memory.Value
module Program = Runtime.Program
module Cas_k = Objects.Cas_k

let cas_loc = "C"

(* Both workloads cycle through the k-1 non-bottom register values. *)
let require_k fn k =
  if k < 2 then
    invalid_arg (Printf.sprintf "Workloads.%s: need k >= 2, got %d" fn k)

let over_capacity_cas_election ~k ~num_vps =
  require_k "over_capacity_cas_election" k;
  let program vp =
    let open Program in
    let mine = Value.int (vp mod (k - 1)) in
    complete
      (let* prev = Cas_k.cas cas_loc ~expected:Cas_k.bottom ~desired:mine in
       if Value.equal prev Cas_k.bottom then return mine else return prev)
  in
  {
    Emulation.name = Printf.sprintf "over-capacity-cas-election(k=%d)" k;
    k;
    cas_loc;
    bindings = [ (cas_loc, Cas_k.spec ~k) ];
    program;
    num_vps;
  }

let rmw_via_cas ~k ~transforms ~rounds ~num_vps =
  if transforms = [] then invalid_arg "rmw_via_cas: no transformations";
  let program vp =
    let open Program in
    let _, f = List.nth transforms (vp mod List.length transforms) in
    (* Apply f atomically: read-compute-c&s retry.  The first "read" is a
       failing c&s against a guessed value; every failure teaches us the
       current value, and values never repeat in a cycle within one
       retry round, so the loop is bounded by the register's traffic. *)
    let rec apply_f belief remaining =
      if remaining = 0 then decide (Value.int vp)
      else
        let desired = f belief in
        if Sigma.equal desired belief then
          (* f fixes this value: the RMW is a read here; one (failing or
             trivially-successful) c&s confirms the value. *)
          let* prev =
            Cas_k.cas cas_loc ~expected:(Sigma.to_value belief)
              ~desired:(Sigma.to_value belief)
          in
          let seen = Sigma.of_value prev in
          if Sigma.equal seen belief then apply_f belief (remaining - 1)
          else apply_f seen remaining
        else
          let* prev =
            Cas_k.cas cas_loc ~expected:(Sigma.to_value belief)
              ~desired:(Sigma.to_value desired)
          in
          let seen = Sigma.of_value prev in
          if Sigma.equal seen belief then apply_f desired (remaining - 1)
          else apply_f seen remaining
    in
    complete (apply_f (Sigma.of_index ~k (vp mod k)) rounds)
  in
  {
    Emulation.name = Printf.sprintf "rmw-via-cas(k=%d,rounds=%d)" k rounds;
    k;
    cas_loc;
    bindings = [ (cas_loc, Cas_k.spec ~k) ];
    program;
    num_vps;
  }

let cycling ~k ~rounds ~num_vps =
  require_k "cycling" k;
  (* The value cycle ⊥ → 0 → 1 → … → (k−2) → ⊥. *)
  let succ = function
    | Sigma.Bot -> Sigma.V 0
    | Sigma.V i -> if i = k - 2 then Sigma.Bot else Sigma.V (i + 1)
  in
  let program vp =
    let open Program in
    let rec go belief remaining =
      if remaining = 0 then decide (Value.int vp)
      else
        let desired = succ belief in
        let* prev =
          Cas_k.cas cas_loc ~expected:(Sigma.to_value belief)
            ~desired:(Sigma.to_value desired)
        in
        let prev_sym = Sigma.of_value prev in
        if Sigma.equal prev_sym belief then go desired (remaining - 1)
        else go prev_sym remaining
    in
    complete (go (Sigma.of_index ~k (vp mod k)) rounds)
  in
  {
    Emulation.name = Printf.sprintf "cycling(k=%d,rounds=%d)" k rounds;
    k;
    cas_loc;
    bindings = [ (cas_loc, Cas_k.spec ~k) ];
    program;
    num_vps;
  }
