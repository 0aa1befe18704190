type t = int array

let make n = Array.make (max n 1) 0
let copy = Array.copy
let get t pid = if pid < Array.length t then t.(pid) else 0

let tick t pid =
  let n = Array.length t in
  let t' =
    if pid < n then Array.copy t
    else begin
      let grown = Array.make (pid + 1) 0 in
      Array.blit t 0 grown 0 n;
      grown
    end
  in
  t'.(pid) <- t'.(pid) + 1;
  t'

let join a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i -> max (get a i) (get b i))

let leq a b =
  let n = max (Array.length a) (Array.length b) in
  let rec go i = i >= n || (get a i <= get b i && go (i + 1)) in
  go 0

let concurrent a b = (not (leq a b)) && not (leq b a)

let pp ppf t =
  Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ",") int) t

let to_string t = Fmt.str "%a" pp t
