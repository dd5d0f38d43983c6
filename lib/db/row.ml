(* Array-backed tuples — the execution engine's row representation. A
   row is its cells array itself: one heap block per row. *)

type t = Value.t array

let of_array cells = cells
let of_list tup = Array.of_list tup
let to_list r = Array.to_list r
let cells r = r
let arity r = Array.length r
let get r i = r.(i)

(* A multiplicative mix (FNV-style) over the per-value hashes, folded
   left-to-right so equal rows always agree. *)
let hash r =
  Array.fold_left (fun h v -> (h * 0x01000193) lxor Value.hash v) 0x811c9dc5 r land max_int

let equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let n = Array.length a and m = Array.length b in
  let rec go i =
    if i >= n then if i >= m then 0 else -1
    else if i >= m then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp fmt r =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_seq ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Value.pp)
    (Array.to_seq r)
