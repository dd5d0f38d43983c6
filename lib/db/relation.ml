type tuple = Value.t list

(* Rows are kept in a sorted, duplicate-free array (ascending
   Row.compare, i.e. lexicographic by Value.compare) — the same canonical
   order the original Tset representation exposed, but with O(1) column
   access and cache-friendly scans. *)
type t = { arity : int; rows : Row.t array }

let check_arity arity tup =
  if List.length tup <> arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple of length %d in relation of arity %d"
         (List.length tup) arity)

let check_row_arity arity row =
  if Row.arity row <> arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple of length %d in relation of arity %d"
         (Row.arity row) arity)

(* sort in place and drop duplicates; returns a fresh array when the
   input had duplicates, the sorted input otherwise *)
let sort_uniq_rows rows =
  Array.sort Row.compare rows;
  let n = Array.length rows in
  if n <= 1 then rows
  else begin
    let dupes = ref 0 in
    for i = 1 to n - 1 do
      if Row.equal rows.(i - 1) rows.(i) then incr dupes
    done;
    if !dupes = 0 then rows
    else begin
      let out = Array.make (n - !dupes) rows.(0) in
      let j = ref 0 in
      for i = 1 to n - 1 do
        if not (Row.equal rows.(i) out.(!j)) then begin
          incr j;
          out.(!j) <- rows.(i)
        end
      done;
      out
    end
  end

let of_rows ~arity rows =
  Array.iter (check_row_arity arity) rows;
  { arity; rows = sort_uniq_rows (Array.copy rows) }

(* internal: rows already sorted and duplicate-free *)
let of_sorted_rows ~arity rows = { arity; rows }

let make ~arity tuples =
  List.iter (check_arity arity) tuples;
  { arity; rows = sort_uniq_rows (Array.of_list (List.map Row.of_list tuples)) }

let empty ~arity = { arity; rows = [||] }
let arity r = r.arity
let rows r = r.rows
let tuples r = Array.to_list (Array.map Row.to_list r.rows)
let cardinal r = Array.length r.rows
let is_empty r = Array.length r.rows = 0

let mem_row row r =
  let lo = ref 0 and hi = ref (Array.length r.rows) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Row.compare row r.rows.(mid) in
    if c = 0 then found := true else if c < 0 then hi := mid else lo := mid + 1
  done;
  !found

let mem tup r = mem_row (Row.of_list tup) r

let add tup r =
  check_arity r.arity tup;
  let row = Row.of_list tup in
  (* binary search for the insertion point *)
  let lo = ref 0 and hi = ref (Array.length r.rows) in
  let dup = ref false in
  while (not !dup) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Row.compare row r.rows.(mid) in
    if c = 0 then dup := true else if c < 0 then hi := mid else lo := mid + 1
  done;
  if !dup then r
  else begin
    let n = Array.length r.rows in
    let out = Array.make (n + 1) row in
    Array.blit r.rows 0 out 0 !lo;
    Array.blit r.rows !lo out (!lo + 1) (n - !lo);
    { r with rows = out }
  end

let equal a b =
  a.arity = b.arity
  && Array.length a.rows = Array.length b.rows
  &&
  let n = Array.length a.rows in
  let rec go i = i >= n || (Row.equal a.rows.(i) b.rows.(i) && go (i + 1)) in
  go 0


let values r =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc v -> v :: acc) acc (Row.cells row))
    [] r.rows
  |> List.sort_uniq Value.compare

let of_values vs = make ~arity:1 (List.map (fun v -> [ v ]) vs)

let pp fmt r =
  Format.fprintf fmt "{";
  Array.iteri
    (fun i row ->
      if i > 0 then Format.fprintf fmt ", ";
      Row.pp fmt row)
    r.rows;
  Format.fprintf fmt "}"
