(* Columnar batch execution kernel.

   A batch is the column-major, dictionary-encoded image of a relation:
   one [int array] per attribute holding small-int codes, plus an
   optional selection vector so filters and anti-joins never copy column
   data.  All values flowing through one plan evaluation share a single
   dictionary, so value equality is code equality and every operator's
   inner loop works on unboxed ints — no [Row.t] allocation, no
   [Value.compare], no string hashing per probe.

   Invariant: a batch's logical rows are always duplicate-free, exactly
   like {!Relation}.  Every operator that could introduce duplicates
   (projection, union) re-deduplicates before returning, so per-operator
   output cardinalities — and hence budget charges and telemetry
   histograms — are those of the relations the plan denotes. *)

module Dict = struct
  (* A dictionary is a (short) chain of layers: a shared frozen parent —
     typically the state's storage dictionary, whose codes are
     Value.compare ranks — plus a mutable overlay holding the few values
     a particular plan introduces (literal relations).  The overlay keeps
     the shared layer immutable after publication, so one storage
     dictionary serves concurrent evaluations. *)
  type t = {
    parent : t option;
    offset : int;  (* absolute codes below [offset] live in the parent *)
    mutable values : Value.t array;  (* local: absolute code [offset + i] *)
    mutable hashes : int array;  (* cached [Value.hash] per local code *)
    mutable n : int;  (* local count *)
    index : (Value.t, int) Hashtbl.t;  (* local value -> absolute code *)
    mutable ordered : bool;
        (* codes are Value.compare ranks overall: code-lexicographic row
           order is the canonical Relation order, so the final sort can
           be int-only *)
  }

  let dummy = Value.int 0

  let create ?(size = 64) () =
    { parent = None;
      offset = 0;
      values = Array.make (max 16 size) dummy;
      hashes = Array.make (max 16 size) 0;
      n = 0;
      index = Hashtbl.create (max 16 size);
      ordered = false }

  (* [vs] must be sorted ascending by [Value.compare] and duplicate-free *)
  let of_sorted_values vs =
    let n = List.length vs in
    let d =
      { parent = None;
        offset = 0;
        values = Array.make (max 16 n) dummy;
        hashes = Array.make (max 16 n) 0;
        n;
        index = Hashtbl.create (2 * max 16 n);
        ordered = true }
    in
    List.iteri
      (fun i v ->
        d.values.(i) <- v;
        d.hashes.(i) <- Value.hash v;
        Hashtbl.add d.index v i)
      vs;
    d

  let size d = d.offset + d.n

  let rec ordered d =
    (match d.parent with None -> true | Some p -> ordered p) && d.ordered

  let overlay parent =
    { parent = Some parent;
      offset = size parent;
      values = Array.make 16 dummy;
      hashes = Array.make 16 0;
      n = 0;
      index = Hashtbl.create 16;
      (* the overlay starts empty; its first insertion breaks rank order
         unless it happens to extend it (checked in [encode]) *)
      ordered = true }

  let rec decode d code =
    if code >= d.offset then d.values.(code - d.offset)
    else
      match d.parent with
      | Some p -> decode p code
      | None -> invalid_arg "Columnar.Dict.decode: code out of range"

  (* cached [Value.hash (decode d code)], so batch-to-row conversion
     never rehashes a boxed value *)
  let rec hash_code d code =
    if code >= d.offset then d.hashes.(code - d.offset)
    else
      match d.parent with
      | Some p -> hash_code p code
      | None -> invalid_arg "Columnar.Dict.hash_code: code out of range"

  let rec find d v =
    match Hashtbl.find_opt d.index v with
    | Some code -> Some code
    | None -> ( match d.parent with Some p -> find p v | None -> None)

  let last_value d = if size d = 0 then None else Some (decode d (size d - 1))

  let encode d v =
    match find d v with
    | Some code -> code
    | None ->
      if d.n = Array.length d.values then begin
        let cap = max 16 (2 * d.n) in
        let bigger = Array.make cap dummy in
        Array.blit d.values 0 bigger 0 d.n;
        d.values <- bigger;
        let bigger_h = Array.make cap 0 in
        Array.blit d.hashes 0 bigger_h 0 d.n;
        d.hashes <- bigger_h
      end;
      (* an unforeseen value breaks the rank ordering unless it extends it *)
      (if d.ordered then
         match last_value d with
         | Some last when Value.compare last v >= 0 -> d.ordered <- false
         | _ -> ());
      let code = d.offset + d.n in
      d.values.(d.n) <- v;
      d.hashes.(d.n) <- Value.hash v;
      Hashtbl.add d.index v code;
      d.n <- d.n + 1;
      code
end

type t = {
  arity : int;
  nrows : int;  (* logical row count *)
  cols : int array array;  (* [arity] physical columns, equal lengths *)
  sel : int array option;  (* logical row [i] lives at physical [sel.(i)] *)
  sorted : bool;
      (* logical rows are in strictly increasing code-lexicographic
         order.  Operators that preserve physical row order (filter,
         dedup, probe-in-order joins of sorted inputs) propagate it, so
         {!to_relation} can usually skip its sort: with a rank-ordered
         dictionary, code-lex order {e is} the canonical row order. *)
}

let arity b = b.arity
let nrows b = b.nrows

let empty arity =
  { arity; nrows = 0; cols = Array.init arity (fun _ -> [||]); sel = None; sorted = true }

(* resolve the selection vector: afterwards logical = physical *)
let dense b =
  match b.sel with
  | None -> b
  | Some s ->
    let n = b.nrows in
    let cols =
      Array.map
        (fun col ->
          let out = Array.make n 0 in
          for i = 0 to n - 1 do
            Array.unsafe_set out i (Array.unsafe_get col (Array.unsafe_get s i))
          done;
          out)
        b.cols
    in
    { arity = b.arity; nrows = n; cols; sel = None; sorted = b.sorted }

(* FNV-style mix over one dense row's codes *)
let row_hash cols arity i =
  let h = ref 0x811c9dc5 in
  for c = 0 to arity - 1 do
    h := (!h * 0x01000193) lxor Array.unsafe_get (Array.unsafe_get cols c) i
  done;
  !h land max_int

let rows_equal cols arity i j =
  let rec go c =
    c >= arity
    || Array.unsafe_get (Array.unsafe_get cols c) i = Array.unsafe_get (Array.unsafe_get cols c) j
       && go (c + 1)
  in
  go 0

(* in-place monomorphic quicksort on int arrays: median-of-three pivot,
   insertion sort on small ranges, no closure calls in the inner loop *)
let sort_ints (a : int array) =
  let swap i j =
    let t = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > v do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median of three into [mid] *)
      if Array.unsafe_get a mid < Array.unsafe_get a lo then swap mid lo;
      if Array.unsafe_get a hi < Array.unsafe_get a mid then begin
        swap hi mid;
        if Array.unsafe_get a mid < Array.unsafe_get a lo then swap mid lo
      end;
      let pivot = Array.unsafe_get a mid in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while Array.unsafe_get a !i < pivot do
          incr i
        done;
        while Array.unsafe_get a !j > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  let n = Array.length a in
  if n > 1 then qsort 0 (n - 1)

(* smallest power of two holding [n] entries at < 50% load *)
let table_size n =
  let s = ref 16 in
  while !s < 2 * n do
    s := !s * 2
  done;
  !s

(* [fits_word d a]: d^a <= 2^61, i.e. a row of [a] codes below [d] packs
   into one non-negative int; checked by repeated division, no overflow *)
let fits_word d a =
  a > 0
  &&
  let rec go cap k = k = 0 || (cap >= d && go (cap / d) (k - 1)) in
  go (1 lsl 61) a

(* Fibonacci-style mix before masking: packed keys are highly regular,
   the multiply spreads them across the table *)
let mix_hash key =
  let h = key * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

(* Keep the first occurrence of each distinct row, preserving order.
   When the rows pack into single words the table stores bare keys — one
   int load per probe, no row comparisons; otherwise open-addressing
   over row indices with exact verification.  No boxed buckets on
   either path. *)
let dedup b =
  let b = dense b in
  let n = b.nrows in
  if n <= 1 then b
  else begin
    let a = b.arity in
    let maxc = ref 0 in
    for c = 0 to a - 1 do
      let col = b.cols.(c) in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get col i in
        if v > !maxc then maxc := v
      done
    done;
    let d = !maxc + 1 in
    let mask = table_size n - 1 in
    let keep = Array.make n 0 in
    let k = ref 0 in
    if fits_word d a then begin
      let slots = Array.make (mask + 1) (-1) in
      let insert i key =
        let s = ref (mix_hash key land mask) in
        let continue = ref true in
        while !continue do
          let q = Array.unsafe_get slots !s in
          if q = -1 then begin
            Array.unsafe_set slots !s key;
            keep.(!k) <- i;
            incr k;
            continue := false
          end
          else if q = key then continue := false
          else s := (!s + 1) land mask
        done
      in
      (* the dominant shapes: hoist the columns out of the pack loop *)
      if a = 1 then begin
        let c0 = b.cols.(0) in
        for i = 0 to n - 1 do
          insert i (Array.unsafe_get c0 i)
        done
      end
      else if a = 2 then begin
        let c0 = b.cols.(0) and c1 = b.cols.(1) in
        for i = 0 to n - 1 do
          insert i ((Array.unsafe_get c0 i * d) + Array.unsafe_get c1 i)
        done
      end
      else
        for i = 0 to n - 1 do
          let key = ref 0 in
          for c = 0 to a - 1 do
            key := (!key * d) + Array.unsafe_get (Array.unsafe_get b.cols c) i
          done;
          insert i !key
        done
    end
    else begin
      let slots = Array.make (mask + 1) (-1) in
      for i = 0 to n - 1 do
        let s = ref (row_hash b.cols a i land mask) in
        let continue = ref true in
        while !continue do
          let j = Array.unsafe_get slots !s in
          if j = -1 then begin
            Array.unsafe_set slots !s i;
            keep.(!k) <- i;
            incr k;
            continue := false
          end
          else if rows_equal b.cols a i j then continue := false
          else s := (!s + 1) land mask
        done
      done
    end;
    if !k = n then b else { b with nrows = !k; sel = Some (Array.sub keep 0 !k) }
  end

(* Dedup for rows already in non-decreasing lex order: duplicates are
   adjacent, so a single sequential compare-with-predecessor pass
   suffices — no table. *)
let dedup_adjacent b =
  let b = dense b in
  let n = b.nrows in
  if n <= 1 then b
  else begin
    let a = b.arity in
    let keep = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || not (rows_equal b.cols a i (i - 1)) then begin
        keep.(!k) <- i;
        incr k
      end
    done;
    if !k = n then b else { b with nrows = !k; sel = Some (Array.sub keep 0 !k) }
  end

(* Dedup for rows grouped by a non-decreasing first column: each group
   deduplicates through a small generation-stamped table keyed on the
   remaining columns.  The table is sized by the largest group — cache
   resident — where the global table's size tracks the whole (possibly
   enormous) input.  First occurrences are kept in order, so the group
   structure survives in the output. *)
let dedup_grouped b =
  let b = dense b in
  let n = b.nrows in
  let a = b.arity in
  if n <= 1 || a < 2 then dedup b
  else begin
    let maxc = ref 0 in
    for c = 1 to a - 1 do
      let col = b.cols.(c) in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get col i in
        if v > !maxc then maxc := v
      done
    done;
    let d = !maxc + 1 in
    if not (fits_word d (a - 1)) then dedup b
    else begin
      let c0 = b.cols.(0) in
      let maxg = ref 1 and run = ref 1 in
      for i = 1 to n - 1 do
        if Array.unsafe_get c0 i = Array.unsafe_get c0 (i - 1) then begin
          incr run;
          if !run > !maxg then maxg := !run
        end
        else run := 1
      done;
      let mask = table_size !maxg - 1 in
      let slots = Array.make (mask + 1) 0 in
      let stamps = Array.make (mask + 1) 0 in
      let keep = Array.make n 0 in
      let k = ref 0 in
      let gen = ref 0 in
      let insert i key =
        let s = ref (mix_hash key land mask) in
        let continue = ref true in
        while !continue do
          if Array.unsafe_get stamps !s <> !gen then begin
            Array.unsafe_set stamps !s !gen;
            Array.unsafe_set slots !s key;
            keep.(!k) <- i;
            incr k;
            continue := false
          end
          else if Array.unsafe_get slots !s = key then continue := false
          else s := (!s + 1) land mask
        done
      in
      let prev = ref min_int in
      if a = 2 then begin
        let c1 = b.cols.(1) in
        for i = 0 to n - 1 do
          let g = Array.unsafe_get c0 i in
          if g <> !prev then begin
            prev := g;
            incr gen
          end;
          insert i (Array.unsafe_get c1 i)
        done
      end
      else
        for i = 0 to n - 1 do
          let g = Array.unsafe_get c0 i in
          if g <> !prev then begin
            prev := g;
            incr gen
          end;
          let key = ref 0 in
          for c = 1 to a - 1 do
            key := (!key * d) + Array.unsafe_get (Array.unsafe_get b.cols c) i
          done;
          insert i !key
        done;
      if !k = n then b else { b with nrows = !k; sel = Some (Array.sub keep 0 !k) }
    end
  end

let of_relation dict rel =
  let rows = Relation.rows rel in
  let arity = Relation.arity rel in
  let n = Array.length rows in
  let cols =
    Array.init arity (fun c ->
        let out = Array.make n 0 in
        for i = 0 to n - 1 do
          out.(i) <- Dict.encode dict (Row.get rows.(i) c)
        done;
        out)
  in
  (* relation rows are canonically sorted; ranks preserve that order *)
  { arity; nrows = n; cols; sel = None; sorted = Dict.ordered dict }

let to_relation dict b =
  let b = dense b in
  let n = b.nrows in
  (* cells and the row hash both come out of the dictionary's per-code
     caches; no boxed value is hashed here *)
  let decode_row i =
    let a = b.arity in
    if a = 0 then Row.of_array [||]
    else begin
      let cells = Array.make a (Dict.decode dict b.cols.(0).(i)) in
      let h = ref Row.seed_hash in
      for c = 0 to a - 1 do
        let code = b.cols.(c).(i) in
        cells.(c) <- Dict.decode dict code;
        h := Row.combine_hash !h (Dict.hash_code dict code)
      done;
      Row.of_array_hashed cells (!h land max_int)
    end
  in
  if Dict.ordered dict then begin
    (* codes are Value ranks: code-lexicographic order is the canonical
       row order, and batches are duplicate-free, so nothing boxed is
       ever compared.  Operators propagate sortedness, so most batches
       need no sort at all; the rest sort unboxed ints — packed into a
       single key per row when the codes fit one word. *)
    if b.sorted then Relation.of_sorted_rows ~arity:b.arity (Array.init n decode_row)
    else begin
      let cols = b.cols and a = b.arity in
      let d = max 1 (Dict.size dict) in
      if fits_word d a then begin
        (* pack each row into one word, sort the words monomorphically,
           unpack by divmod: no permutation array, no compare closure *)
        let keys = Array.make n 0 in
        for i = 0 to n - 1 do
          let key = ref 0 in
          for c = 0 to a - 1 do
            key := (!key * d) + Array.unsafe_get (Array.unsafe_get cols c) i
          done;
          Array.unsafe_set keys i !key
        done;
        sort_ints keys;
        let hs = Array.make a 0 in
        let rows =
          Array.map
            (fun key ->
              let cells = Array.make a (Dict.decode dict (key mod d)) in
              let k = ref key in
              for c = a - 1 downto 0 do
                let code = !k mod d in
                cells.(c) <- Dict.decode dict code;
                hs.(c) <- Dict.hash_code dict code;
                k := !k / d
              done;
              (* the row hash folds left-to-right, the unpack runs
                 right-to-left: stage per-cell hashes, then fold *)
              let h = ref Row.seed_hash in
              for c = 0 to a - 1 do
                h := Row.combine_hash !h (Array.unsafe_get hs c)
              done;
              Row.of_array_hashed cells (!h land max_int))
            keys
        in
        Relation.of_sorted_rows ~arity:a rows
      end
      else begin
        let order = Array.init n (fun i -> i) in
        let cmp i j =
          let rec go c =
            if c >= a then 0
            else
              let x = Array.unsafe_get (Array.unsafe_get cols c) i in
              let y = Array.unsafe_get (Array.unsafe_get cols c) j in
              if x < y then -1 else if x > y then 1 else go (c + 1)
          in
          go 0
        in
        Array.sort cmp order;
        Relation.of_sorted_rows ~arity:b.arity (Array.map decode_row order)
      end
    end
  end
  else Relation.of_rows ~arity:b.arity (Array.init n decode_row)

(* [filter pred b] keeps the logical rows satisfying [pred]; only the
   selection vector is rebuilt, columns are shared *)
let filter pred b =
  let n = b.nrows in
  let keep = Array.make (max 1 n) 0 in
  let k = ref 0 in
  (match b.sel with
  | None ->
    for i = 0 to n - 1 do
      if pred i then begin
        keep.(!k) <- i;
        incr k
      end
    done
  | Some s ->
    for i = 0 to n - 1 do
      if pred i then begin
        keep.(!k) <- s.(i);
        incr k
      end
    done);
  if !k = n then b else { b with nrows = !k; sel = Some (Array.sub keep 0 !k) }

let check_col op b c =
  if c < 0 || c >= b.arity then
    invalid_arg (Printf.sprintf "Columnar.%s: column %d of arity %d" op c b.arity)

let project cols b =
  Array.iter (check_col "project" b) cols;
  let b = dense b in
  let n = b.nrows in
  let out = Array.map (fun c -> Array.copy b.cols.(c)) cols in
  (* a prefix projection of sorted rows stays sorted (dedup removes the
     equal neighbours); any other column selection scrambles lex order *)
  let prefix = Array.for_all2 ( = ) cols (Array.init (Array.length cols) (fun i -> i)) in
  let res =
    { arity = Array.length cols; nrows = n; cols = out; sel = None;
      sorted = b.sorted && prefix }
  in
  let is_permutation =
    Array.length cols = b.arity
    &&
    let seen = Array.make b.arity false in
    Array.for_all
      (fun c ->
        if seen.(c) then false
        else begin
          seen.(c) <- true;
          true
        end)
      cols
  in
  if is_permutation then res (* injective on rows: no duplicates to remove *)
  else if b.sorted && prefix then dedup_adjacent res
  else if b.sorted && Array.length cols > 0 && cols.(0) = 0 then
    (* lex-sorted input whose first column survives in front: rows stay
       grouped by that column, so the per-group dedup applies *)
    dedup_grouped res
  else dedup res

let product a b =
  let a = dense a and b = dense b in
  let arity = a.arity + b.arity in
  let n = a.nrows and m = b.nrows in
  if n = 0 || m = 0 then empty arity
  else begin
    let cols =
      Array.init arity (fun c ->
          let out = Array.make (n * m) 0 in
          if c < a.arity then begin
            let src = a.cols.(c) in
            for i = 0 to n - 1 do
              let v = Array.unsafe_get src i and base = i * m in
              for j = 0 to m - 1 do
                Array.unsafe_set out (base + j) v
              done
            done
          end
          else begin
            let src = b.cols.(c - a.arity) in
            for i = 0 to n - 1 do
              let base = i * m in
              for j = 0 to m - 1 do
                Array.unsafe_set out (base + j) (Array.unsafe_get src j)
              done
            done
          end;
          out)
    in
    (* left-major: sorted left groups, each repeating sorted right rows *)
    { arity; nrows = n * m; cols; sel = None; sorted = a.sorted && b.sorted }
  end

(* gather the pair lists (li, ri) into materialized output columns *)
let materialize_pairs ~sorted a b li ri k =
  let arity = a.arity + b.arity in
  let cols =
    Array.init arity (fun c ->
        let out = Array.make k 0 in
        if c < a.arity then begin
          let src = a.cols.(c) in
          for x = 0 to k - 1 do
            Array.unsafe_set out x (Array.unsafe_get src (Array.unsafe_get li x))
          done
        end
        else begin
          let src = b.cols.(c - a.arity) in
          for x = 0 to k - 1 do
            Array.unsafe_set out x (Array.unsafe_get src (Array.unsafe_get ri x))
          done
        end;
        out)
  in
  { arity; nrows = k; cols; sel = None; sorted }

(* growable pair accumulator shared by the join paths *)
type pair_acc = {
  mutable li : int array;
  mutable ri : int array;
  mutable len : int;
}

let acc_make cap = { li = Array.make cap 0; ri = Array.make cap 0; len = 0 }

let acc_push acc i j =
  if acc.len = Array.length acc.li then begin
    let cap = 2 * acc.len in
    let li' = Array.make cap 0 and ri' = Array.make cap 0 in
    Array.blit acc.li 0 li' 0 acc.len;
    Array.blit acc.ri 0 ri' 0 acc.len;
    acc.li <- li';
    acc.ri <- ri'
  end;
  Array.unsafe_set acc.li acc.len i;
  Array.unsafe_set acc.ri acc.len j;
  acc.len <- acc.len + 1

(* Hash equijoin over code columns: build on the right side, probe with
   the left.  Two all-int paths, neither of which ever consults a boxed
   value or a generic hash table:
   - single key column: codes are small dictionary ints, so the build
     side is chained directly off the code — probe hits need no
     verification at all (code equality {e is} value equality);
   - compound keys: open-addressing on an FNV mix of the codes, with
     exact code-for-code verification on collisions. *)
let equijoin pairs a b =
  List.iter
    (fun (i, j) ->
      check_col "equijoin" a i;
      check_col "equijoin" b j)
    pairs;
  if pairs = [] then product a b
  else begin
    let a = dense a and b = dense b in
    if a.nrows = 0 || b.nrows = 0 then empty (a.arity + b.arity)
    else begin
      let li, ri, npairs =
        match pairs with
        | [ (ic, jc) ] ->
          let lcol = a.cols.(ic) and rcol = b.cols.(jc) in
          let maxc = ref 0 in
          for j = 0 to b.nrows - 1 do
            let c = Array.unsafe_get rcol j in
            if c > !maxc then maxc := c
          done;
          let m = !maxc in
          let head = Array.make (m + 1) (-1) in
          let next = Array.make b.nrows (-1) in
          let cnt = Array.make (m + 1) 0 in
          (* built back-to-front so each chain is in build-row order *)
          for j = b.nrows - 1 downto 0 do
            let c = Array.unsafe_get rcol j in
            Array.unsafe_set next j (Array.unsafe_get head c);
            Array.unsafe_set head c j;
            Array.unsafe_set cnt c (Array.unsafe_get cnt c + 1)
          done;
          (* exact output size from the per-code chain lengths —
             sequential count reads, so the fill pass below writes into
             exactly-sized arrays with no growth checks *)
          let total = ref 0 in
          for i = 0 to a.nrows - 1 do
            let c = Array.unsafe_get lcol i in
            if c <= m then total := !total + Array.unsafe_get cnt c
          done;
          let li = Array.make (max 1 !total) 0 and ri = Array.make (max 1 !total) 0 in
          let k = ref 0 in
          for i = 0 to a.nrows - 1 do
            let c = Array.unsafe_get lcol i in
            if c <= m then begin
              let j = ref (Array.unsafe_get head c) in
              while !j >= 0 do
                Array.unsafe_set li !k i;
                Array.unsafe_set ri !k !j;
                incr k;
                j := Array.unsafe_get next !j
              done
            end
          done;
          (li, ri, !total)
        | _ ->
          let acc = acc_make (max 16 a.nrows) in
        let lcols = Array.of_list (List.map (fun (i, _) -> a.cols.(i)) pairs) in
        let rcols = Array.of_list (List.map (fun (_, j) -> b.cols.(j)) pairs) in
        let nk = Array.length lcols in
        let key_hash cols i =
          let h = ref 0x811c9dc5 in
          for c = 0 to nk - 1 do
            h := (!h * 0x01000193) lxor Array.unsafe_get (Array.unsafe_get cols c) i
          done;
          !h land max_int
        in
        let right_equal j1 j2 =
          let rec go c =
            c >= nk
            || Array.unsafe_get (Array.unsafe_get rcols c) j1
               = Array.unsafe_get (Array.unsafe_get rcols c) j2
               && go (c + 1)
          in
          go 0
        in
        let cross_equal i j =
          let rec go c =
            c >= nk
            || Array.unsafe_get (Array.unsafe_get lcols c) i
               = Array.unsafe_get (Array.unsafe_get rcols c) j
               && go (c + 1)
          in
          go 0
        in
        (* slots hold the head build row of a key group; [next] chains the
           group's remaining rows in build-row order *)
        let mask = table_size b.nrows - 1 in
        let slots = Array.make (mask + 1) (-1) in
        let next = Array.make b.nrows (-1) in
        for j = b.nrows - 1 downto 0 do
          let s = ref (key_hash rcols j land mask) in
          let continue = ref true in
          while !continue do
            let g = Array.unsafe_get slots !s in
            if g = -1 then begin
              Array.unsafe_set slots !s j;
              continue := false
            end
            else if right_equal g j then begin
              Array.unsafe_set next j g;
              Array.unsafe_set slots !s j;
              continue := false
            end
            else s := (!s + 1) land mask
          done
        done;
        for i = 0 to a.nrows - 1 do
          let s = ref (key_hash lcols i land mask) in
          let continue = ref true in
          while !continue do
            let g = Array.unsafe_get slots !s in
            if g = -1 then continue := false
            else if cross_equal i g then begin
              let j = ref g in
              while !j >= 0 do
                acc_push acc i !j;
                j := Array.unsafe_get next !j
              done;
              continue := false
            end
            else s := (!s + 1) land mask
          done
        done;
          (acc.li, acc.ri, acc.len)
      in
      (* probes run in row order and chains are in build-row order, so
         sorted inputs give sorted output (grouped by left row, right
         rows ascending within a group) *)
      materialize_pairs ~sorted:(a.sorted && b.sorted) a b li ri npairs
    end
  end

(* ---------------------------- access paths ---------------------------- *)

(* A per-column index over a base batch, in CSR form: storage codes are
   dense ranks [0, codes), so the postings of code [k] are
   [rows.(offsets.(k)) .. rows.(offsets.(k + 1) - 1)], physical row ids
   in ascending order.  Codes at or above [codes] (overlay values) have
   no postings. *)
type index = {
  offsets : int array;  (* [codes + 1] bucket starts *)
  rows : int array;  (* every physical row once, grouped by code *)
}

let build_index ~codes b c =
  check_col "build_index" b c;
  if Option.is_some b.sel then invalid_arg "Columnar.build_index: batch has a selection vector";
  let col = b.cols.(c) and n = b.nrows in
  let offsets = Array.make (codes + 1) 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get col i in
    offsets.(k) <- offsets.(k) + 1
  done;
  (* inclusive prefix sums: offsets.(k) is bucket k's end *)
  for k = 1 to codes do
    offsets.(k) <- offsets.(k) + offsets.(k - 1)
  done;
  (* back-to-front fill moves each end down to its start and leaves every
     bucket in ascending row order; offsets.(codes) stays n *)
  let rows = Array.make n 0 in
  for i = n - 1 downto 0 do
    let k = Array.unsafe_get col i in
    let p = Array.unsafe_get offsets k - 1 in
    Array.unsafe_set offsets k p;
    Array.unsafe_set rows p i
  done;
  { offsets; rows }

(* the number of codes with postings: a code at or above it (an overlay
   value) has none *)
let indexed_codes ix = Array.length ix.offsets - 1

(* the rows of a dense base batch holding [code] in the indexed column:
   the postings become the selection vector, so order (and sortedness)
   is the batch's own *)
let select_code ix b code =
  if Option.is_some b.sel then invalid_arg "Columnar.select_code: batch has a selection vector";
  if code < 0 || code >= indexed_codes ix then { b with nrows = 0; sel = Some [||] }
  else begin
    let lo = ix.offsets.(code) and hi = ix.offsets.(code + 1) in
    if hi - lo = b.nrows then b
    else { b with nrows = hi - lo; sel = Some (Array.sub ix.rows lo (hi - lo)) }
  end

(* the residual pairs of a probe join as parallel column arrays *)
let residual_cols a b pairs =
  ( Array.of_list (List.map (fun (i, _) -> a.cols.(i)) pairs),
    Array.of_list (List.map (fun (_, j) -> b.cols.(j)) pairs) )

let residual_holds lcols rcols i j =
  let n = Array.length lcols and c = ref 0 in
  while
    !c < n
    && Array.unsafe_get (Array.unsafe_get lcols !c) i
       = Array.unsafe_get (Array.unsafe_get rcols !c) j
  do
    incr c
  done;
  !c = n

(* how many postings the first [n] codes of [col] look up *)
let postings_total ix col n =
  let offs = ix.offsets and last = indexed_codes ix in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get col i in
    if c < last then total := !total + Array.unsafe_get offs (c + 1) - Array.unsafe_get offs c
  done;
  !total

(* [equijoin pairs a b] where [b] is a dense base batch and [ix] indexes
   [b]'s column of the first pair: every left row looks its key up in
   the postings, the remaining pairs are checked per match, and no table
   is built.  Left rows probe in order and postings ascend, so the output
   order is equijoin's.  With a residual the postings only bound the
   output; once they outnumber the rows a hash join touches ([|a| + |b|])
   the probe declines and the caller joins by hashing. *)
let join_index_right pairs a b ix =
  List.iter
    (fun (i, j) ->
      check_col "join_index_right" a i;
      check_col "join_index_right" b j)
    pairs;
  match pairs with
  | [] -> invalid_arg "Columnar.join_index_right: no join pairs"
  | (ic, _) :: rest ->
    let a = dense a in
    if a.nrows = 0 || b.nrows = 0 then Some (empty (a.arity + b.arity))
    else begin
      let lcol = a.cols.(ic) in
      let total = postings_total ix lcol a.nrows in
      if rest <> [] && total > a.nrows + b.nrows then None
      else begin
        let li = Array.make (max 1 total) 0 and ri = Array.make (max 1 total) 0 in
        let lcols, rcols = residual_cols a b rest in
        let k = ref 0 in
        let offs = ix.offsets and rows = ix.rows and last = indexed_codes ix in
        for i = 0 to a.nrows - 1 do
          let c = Array.unsafe_get lcol i in
          if c < last then
            for p = Array.unsafe_get offs c to Array.unsafe_get offs (c + 1) - 1 do
              let j = Array.unsafe_get rows p in
              if residual_holds lcols rcols i j then begin
                Array.unsafe_set li !k i;
                Array.unsafe_set ri !k j;
                incr k
              end
            done
        done;
        Some (materialize_pairs ~sorted:(a.sorted && b.sorted) a b li ri !k)
      end
    end

(* [equijoin pairs a b] where [a] is a dense base batch and [ix] indexes
   [a]'s column of the first pair: the right rows probe, and the matches
   are then sorted back into equijoin's left-major order (left row, then
   right row), packed one pair per word.  Declines, as above, when the
   postings outnumber [|a| + |b|]: checking and sorting them would cost
   more than hashing. *)
let join_index_left pairs a ix b =
  List.iter
    (fun (i, j) ->
      check_col "join_index_left" a i;
      check_col "join_index_left" b j)
    pairs;
  match pairs with
  | [] -> invalid_arg "Columnar.join_index_left: no join pairs"
  | (_, jc) :: rest ->
    let b = dense b in
    let m = b.nrows in
    if a.nrows = 0 || m = 0 then Some (empty (a.arity + b.arity))
    else begin
      let rcol = b.cols.(jc) in
      let total = postings_total ix rcol m in
      if total > a.nrows + m then None
      else begin
        let lcols, rcols = residual_cols a b rest in
        let keys = Array.make (max 1 total) 0 in
        let k = ref 0 and ordered = ref true in
        let offs = ix.offsets and rows = ix.rows and last = indexed_codes ix in
        for j = 0 to m - 1 do
          let c = Array.unsafe_get rcol j in
          if c < last then
            for p = Array.unsafe_get offs c to Array.unsafe_get offs (c + 1) - 1 do
              let i = Array.unsafe_get rows p in
              if residual_holds lcols rcols i j then begin
                let key = (i * m) + j in
                if !k > 0 && Array.unsafe_get keys (!k - 1) > key then ordered := false;
                Array.unsafe_set keys !k key;
                incr k
              end
            done
        done;
        let keys = Array.sub keys 0 !k in
        if not !ordered then sort_ints keys;
        let li = Array.map (fun key -> key / m) keys and ri = Array.map (fun key -> key mod m) keys in
        Some (materialize_pairs ~sorted:(a.sorted && b.sorted) a b li ri !k)
      end
    end

let same_arity op a b =
  if a.arity <> b.arity then
    invalid_arg (Printf.sprintf "Columnar.%s: arities %d and %d differ" op a.arity b.arity)

let union a b =
  same_arity "union" a b;
  let a = dense a and b = dense b in
  let n = a.nrows and m = b.nrows in
  let cols =
    Array.init a.arity (fun c ->
        let out = Array.make (n + m) 0 in
        Array.blit a.cols.(c) 0 out 0 n;
        Array.blit b.cols.(c) 0 out n m;
        out)
  in
  (* concatenation interleaves the two orders *)
  dedup
    { arity = a.arity; nrows = n + m; cols; sel = None;
      sorted = (n = 0 && b.sorted) || (m = 0 && a.sorted) }

(* membership structure over [b]'s rows, for diff: open-addressing set
   of row indices (rows of a batch are duplicate-free, so one slot per
   distinct row suffices) *)
let diff a b =
  same_arity "diff" a b;
  let da = dense a and db = dense b in
  if db.nrows = 0 then da
  else begin
    let mask = table_size db.nrows - 1 in
    let slots = Array.make (mask + 1) (-1) in
    for j = 0 to db.nrows - 1 do
      let s = ref (row_hash db.cols db.arity j land mask) in
      while Array.unsafe_get slots !s <> -1 do
        s := (!s + 1) land mask
      done;
      Array.unsafe_set slots !s j
    done;
    let cross_equal i j =
      let rec go c =
        c >= da.arity || da.cols.(c).(i) = db.cols.(c).(j) && go (c + 1)
      in
      go 0
    in
    let absent i =
      let s = ref (row_hash da.cols da.arity i land mask) in
      let res = ref true and continue = ref true in
      while !continue do
        let j = Array.unsafe_get slots !s in
        if j = -1 then continue := false
        else if cross_equal i j then begin
          res := false;
          continue := false
        end
        else s := (!s + 1) land mask
      done;
      !res
    in
    filter absent da
  end
