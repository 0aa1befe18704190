module Sset = Set.Make (String)

type op_bound = Bounded of int | Unbounded

type per_pid = {
  pid : int;
  may_read : Sset.t;
  may_write : Sset.t;
  written : (string * Absval.t) list;
  op_bound : op_bound;
  terminates : bool;
  node_capped : bool;
}

type t = {
  per_pid : per_pid list;
  sigma : (string * Absval.t) list;
  complete : bool;
  passes : int;
  nodes : int;
  limits : string list;
}

let footprint p = Sset.union p.may_read p.may_write
let register_count p = Sset.cardinal (footprint p)

let protocol_footprint t =
  List.fold_left (fun acc p -> Sset.union acc (footprint p)) Sset.empty t.per_pid

let protocol_register_count t = Sset.cardinal (protocol_footprint t)
let sigma_of t loc = List.assoc_opt loc t.sigma

let khat t loc =
  match sigma_of t loc with
  | None -> Some 0
  | Some a -> Absval.cardinal a

let footprints t =
  if not t.complete then None
  else
    Some
      (Array.of_list
         (List.map
            (fun p -> (Sset.elements p.may_read, Sset.elements p.may_write))
            t.per_pid))

let pp_op_bound ppf = function
  | Bounded b -> Fmt.pf ppf "≤ %d ops" b
  | Unbounded -> Fmt.string ppf "unbounded"

let pp_locs ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") string) (Sset.elements s)

let pp_per_pid ppf p =
  Fmt.pf ppf "p%d: reads %a, writes %a, %a%s%s" p.pid pp_locs p.may_read
    pp_locs p.may_write pp_op_bound p.op_bound
    (if p.terminates then "" else ", no terminating path")
    (if p.node_capped then ", node-capped" else "")

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,Σ̂: %a@,%s (%d passes, %d nodes)%a@]"
    Fmt.(list ~sep:(any "@,") pp_per_pid)
    t.per_pid
    Fmt.(
      list ~sep:(any "; ") (fun ppf (l, a) -> Fmt.pf ppf "%s=%a" l Absval.pp a))
    t.sigma
    (if t.complete then "complete" else "incomplete")
    t.passes t.nodes
    Fmt.(
      if t.limits = [] then nop
      else fun ppf () ->
        pf ppf "@,limits: %a" (list ~sep:(any ", ") string) t.limits)
    ()
