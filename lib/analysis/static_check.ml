module Summary = Lepower_static.Summary
module Absint = Lepower_static.Absint
module Kbound = Lepower_static.Kbound
module Accountant = Lepower_static.Accountant
module Sset = Summary.Sset

type analysis = {
  summary : Summary.t;
  certs : Kbound.cert list;
  accountant : Accountant.t;
}

let m_analyses = Lepower_obs.Metrics.counter "static.analyses"
let ph_static = Lepower_prof.Phase.make "lint.static"

let analyze ?options ?(bounds = []) ~bindings programs =
  Lepower_obs.Metrics.incr m_analyses;
  let tok = Lepower_prof.Phase.enter ph_static in
  let summary = Absint.analyze ?options ~bindings programs in
  let a =
    {
      summary;
      certs = Kbound.certify ~bounds ~bindings summary;
      accountant = Accountant.count ~bindings summary;
    }
  in
  Lepower_prof.Phase.leave tok;
  a

let findings ?register_budget ~name ~budget ~single_writer ~bindings a =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let s = a.summary in
  (* static-swmr: presence evidence survives an incomplete summary — the
     interpreter saw both processes issue the write. *)
  let swmr_locs =
    List.sort_uniq String.compare
      (single_writer
      @ List.filter_map
          (fun (loc, (spec : Memory.Spec.t)) ->
            if String.equal spec.Memory.Spec.type_name "swmr-reg" then Some loc
            else None)
          bindings)
  in
  List.iter
    (fun loc ->
      match
        List.filter
          (fun (p : Summary.per_pid) -> Sset.mem loc p.Summary.may_write)
          s.Summary.per_pid
      with
      | ([] | [ _ ]) -> ()
      | writers ->
        add
          (Finding.v ~rule:"static-swmr" ~loc
             "single-writer register statically writable by %d processes \
              (%s) — no schedule needed"
             (List.length writers)
             (String.concat ", "
                (List.map
                   (fun (p : Summary.per_pid) ->
                     Printf.sprintf "p%d" p.Summary.pid)
                   writers))))
    swmr_locs;
  (* static-k-bound: the abstract store already exceeds the alphabet. *)
  List.iter
    (fun (c : Kbound.cert) ->
      if c.Kbound.violated then
        match (c.Kbound.non_init, c.Kbound.bound) with
        | Some non_init, Some k ->
          add
            (Finding.v ~rule:"static-k-bound" ~loc:c.Kbound.loc
               "%d distinct non-initial abstract states reachable on a %s \
                with bound %d (admits %d)%s"
               non_init c.Kbound.type_name k (k - 1)
               (if s.Summary.complete then ""
                else " — summary incomplete, corroborate dynamically"))
        | _ -> ())
    a.certs;
  (* static-loop-bound: the wait-freedom pre-pass's findings. *)
  List.iter
    (fun (p : Summary.per_pid) ->
      let loc = Printf.sprintf "p%d" p.Summary.pid in
      match p.Summary.op_bound with
      | Summary.Bounded b ->
        if b > budget then
          add
            (Finding.v ~severity:Finding.Info ~rule:"static-loop-bound" ~loc
               "statically bounded at %d ops, above the declared budget %d \
                (the pooled responder over-approximates; corroborate \
                dynamically)"
               b budget)
      | Summary.Unbounded ->
        if p.Summary.node_capped then
          add
            (Finding.v ~severity:Finding.Info ~rule:"static-loop-bound" ~loc
               "walk inconclusive: node cap hit before the depth cap \
                resolved")
        else if not p.Summary.terminates then
          add
            (Finding.v ~rule:"static-loop-bound" ~loc
               "unbounded operation sequence and no terminating path under \
                the pooled responder — a spin no environment state exits")
        else
          add
            (Finding.v ~severity:Finding.Info ~rule:"static-loop-bound" ~loc
               "syntactic retry loop (depth cap exceeded) with a reachable \
                exit; the dynamic auditor decides"))
    s.Summary.per_pid;
  (* static-register-budget: the accountant's census, always on record. *)
  let acct = a.accountant in
  (match register_budget with
  | Some rb when Accountant.over_budget acct ~budget:rb ->
    add
      (Finding.v ~rule:"static-register-budget" ~loc:name
         "static footprint needs %d registers, over the declared budget %d \
          (%a)"
         acct.Accountant.total rb Accountant.pp acct)
  | _ ->
    add
      (Finding.v ~severity:Finding.Info ~rule:"static-register-budget"
         ~loc:name "%a" Accountant.pp acct));
  List.rev !fs

let soundness_finding ~name violation =
  Finding.v ~rule:"static-soundness" ~loc:name
    "execution escaped the effect summary: %s" violation

let counterpart = function
  | "swmr-discipline" -> Some "static-swmr"
  | "bounded-value" -> Some "static-k-bound"
  | "wait-freedom" -> Some "static-loop-bound"
  | _ -> None
