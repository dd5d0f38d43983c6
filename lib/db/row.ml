(* Array-backed tuples with a precomputed hash — the execution engine's
   row representation. The hash is combined left-to-right so equal rows
   always agree, and equality checks can reject on the hash before
   touching the cells. *)

type t = { cells : Value.t array; hash : int }

(* A multiplicative mix (FNV-style) over the per-value hashes. *)
let combine h v = (h * 0x01000193) lxor v
let combine_hash = combine
let seed_hash = 0x811c9dc5

let hash_cells cells =
  Array.fold_left (fun h v -> combine h (Value.hash v)) seed_hash cells land max_int

let of_array cells = { cells; hash = hash_cells cells }
let of_array_hashed cells hash = { cells; hash }
let of_list tup = of_array (Array.of_list tup)
let to_list r = Array.to_list r.cells
let cells r = r.cells
let hash r = r.hash
let arity r = Array.length r.cells
let get r i = r.cells.(i)

let equal a b =
  a.hash = b.hash
  &&
  let n = Array.length a.cells in
  n = Array.length b.cells
  &&
  let rec go i = i >= n || (Value.equal a.cells.(i) b.cells.(i) && go (i + 1)) in
  go 0

let compare a b =
  let n = Array.length a.cells and m = Array.length b.cells in
  let rec go i =
    if i >= n then if i >= m then 0 else -1
    else if i >= m then 1
    else
      let c = Value.compare a.cells.(i) b.cells.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp fmt r =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_seq
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       Value.pp)
    (Array.to_seq r.cells)
