(* Columnar batch execution kernel.

   A batch is the column-major, dictionary-encoded image of a relation:
   one [int array] per attribute holding small-int codes, plus an
   optional selection vector so filters and anti-joins never copy column
   data.  All values flowing through one plan evaluation share a single
   dictionary, so value equality is code equality and every operator's
   inner loop works on unboxed ints — no [Row.t] allocation, no
   [Value.compare], no string hashing per probe.

   Invariant: a batch's logical rows are always duplicate-free, exactly
   like {!Relation}.  The operators that could introduce duplicates
   (projection, union) pass their rows through [canon], the one dedup
   and sort kernel, so per-operator output cardinalities — and hence
   budget charges and telemetry histograms — are those of the relations
   the plan denotes.  [canon] leaves its rows sorted, and so does every
   order-preserving operator over sorted rows, so the final
   {!to_relation} sorts only batches that never passed through it. *)

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
        n;
        index = Hashtbl.create (2 * max 16 n);
        ordered = true }
    in
    List.iteri
      (fun i v ->
        d.values.(i) <- v;
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
        d.values <- bigger
      end;
      (* an unforeseen value breaks the rank ordering unless it extends it *)
      (if d.ordered then
         match last_value d with
         | Some last when Value.compare last v >= 0 -> d.ordered <- false
         | _ -> ());
      let code = d.offset + d.n in
      d.values.(d.n) <- v;
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
         order.  [canon] sets it, and operators that preserve physical
         row order (filter, probe-in-order joins of sorted inputs)
         propagate it, so {!to_relation} can usually skip its sort: with
         a rank-ordered
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

(* Below this many keys the quicksort wins: every radix pass walks a
   count array and a scratch array of the keys' size. *)
let radix_cutoff = 4096

(* [sort_keys keys ~bound] sorts [keys], all in [0, bound), ascending in
   place.  Large arrays take an LSD radix sort over the bits of
   [bound - 1], split into the fewest passes of at most 11 bits, of equal
   width (offline-join's 4,000 codes at arity 2: 24 bits, 3 passes of 8).
   One pass over the keys counts every digit; a pass whose digit all keys
   share is skipped. *)
let sort_keys (a : int array) ~bound =
  let n = Array.length a in
  if n < radix_cutoff then sort_ints a
  else begin
    let bits = ref 1 in
    while (bound - 1) lsr !bits > 0 do
      incr bits
    done;
    let passes = (!bits + 10) / 11 in
    let width = (!bits + passes - 1) / passes in
    let radix = 1 lsl width in
    let mask = radix - 1 in
    let counts = Array.make (passes * radix) 0 in
    for i = 0 to n - 1 do
      let k = Array.unsafe_get a i in
      for p = 0 to passes - 1 do
        let s = (p * radix) + ((k lsr (p * width)) land mask) in
        Array.unsafe_set counts s (Array.unsafe_get counts s + 1)
      done
    done;
    let src = ref a and dst = ref (Array.make n 0) in
    for p = 0 to passes - 1 do
      let base = p * radix and shift = p * width in
      if counts.(base + ((a.(0) lsr shift) land mask)) < n then begin
        (* counts become each digit's first output slot *)
        let start = ref 0 in
        for d = base to base + mask do
          let c = Array.unsafe_get counts d in
          Array.unsafe_set counts d !start;
          start := !start + c
        done;
        let s = !src and t = !dst in
        for i = 0 to n - 1 do
          let k = Array.unsafe_get s i in
          let d = base + ((k lsr shift) land mask) in
          let pos = Array.unsafe_get counts d in
          Array.unsafe_set t pos k;
          Array.unsafe_set counts d (pos + 1)
        done;
        src := t;
        dst := s
      end
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* smallest power of two holding [n] entries at < 50% load *)
let table_size n =
  let s = ref 16 in
  while !s < 2 * n do
    s := !s * 2
  done;
  !s

(* bits that hold every code of [col]; 0 for an all-zero column *)
let code_bits (col : int array) =
  let m = ref 0 and w = ref 0 in
  for i = 0 to Array.length col - 1 do
    let c = Array.unsafe_get col i in
    if c > !m then m := c
  done;
  while !m lsr !w > 0 do
    incr w
  done;
  !w

(* code-lexicographic comparison of dense rows [i] and [j] *)
let compare_rows cols a i j =
  let rec go c =
    if c >= a then 0
    else
      let x = Array.unsafe_get (Array.unsafe_get cols c) i in
      let y = Array.unsafe_get (Array.unsafe_get cols c) j in
      if x < y then -1 else if x > y then 1 else go (c + 1)
  in
  go 0

(* [canon b]: the distinct rows of [b] in strictly increasing code order,
   dense and flagged [sorted] — the one dedup and sort kernel, behind
   projection, union and {!to_relation}.  When the rows fit one word at
   a fixed bit width per column (the bits of the column's largest code)
   each packs into one int, column 0 most significant; unless the keys
   already ascend, {!sort_keys} sorts them; adjacent duplicates are
   squeezed out and the survivors unpacked by shift and mask.  Wider
   rows sort a row permutation by code comparison instead. *)
let canon b =
  let b = dense b in
  let n = b.nrows and a = b.arity and cols = b.cols in
  if n <= 1 then { b with sorted = true }
  else begin
    let widths = Array.map code_bits cols in
    let bits = Array.fold_left ( + ) 0 widths in
    if bits <= 61 then begin
      let shifts = Array.make a 0 in
      for c = a - 2 downto 0 do
        shifts.(c) <- shifts.(c + 1) + widths.(c + 1)
      done;
      let keys = Array.make n 0 in
      for c = 0 to a - 1 do
        let col = cols.(c) and s = shifts.(c) in
        for i = 0 to n - 1 do
          Array.unsafe_set keys i (Array.unsafe_get keys i lor (Array.unsafe_get col i lsl s))
        done
      done;
      let ascending = ref true and i = ref 1 in
      while !ascending && !i < n do
        if Array.unsafe_get keys (!i - 1) > Array.unsafe_get keys !i then ascending := false;
        incr i
      done;
      if not !ascending then sort_keys keys ~bound:(1 lsl bits);
      let k = ref 1 in
      for i = 1 to n - 1 do
        let key = Array.unsafe_get keys i in
        if key <> Array.unsafe_get keys (!k - 1) then begin
          Array.unsafe_set keys !k key;
          incr k
        end
      done;
      let k = !k in
      if k = n && !ascending then { b with sorted = true }
      else begin
        let cols =
          Array.init a (fun c ->
              let s = shifts.(c) and mask = (1 lsl widths.(c)) - 1 in
              let out = Array.make k 0 in
              for i = 0 to k - 1 do
                Array.unsafe_set out i ((Array.unsafe_get keys i lsr s) land mask)
              done;
              out)
        in
        { arity = a; nrows = k; cols; sel = None; sorted = true }
      end
    end
    else begin
      let order = Array.init n Fun.id and ascending = ref true in
      for i = 1 to n - 1 do
        if !ascending && compare_rows cols a (i - 1) i > 0 then ascending := false
      done;
      if not !ascending then Array.sort (compare_rows cols a) order;
      let k = ref 1 in
      for i = 1 to n - 1 do
        let r = order.(i) in
        if compare_rows cols a order.(!k - 1) r <> 0 then begin
          order.(!k) <- r;
          incr k
        end
      done;
      let cols = Array.map (fun col -> Array.init !k (fun i -> col.(order.(i)))) cols in
      { arity = a; nrows = !k; cols; sel = None; sorted = true }
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

(* Answer rows are bare cell arrays built by one initializing
   allocation for the common arities; dictionary-decoded cells are
   shared, never copied.  Top-level helpers, so no closure is allocated
   per row. *)
let cell dict (cols : int array array) c i =
  Dict.decode dict (Array.unsafe_get (Array.unsafe_get cols c) i)

let row_at dict cols a i =
  match a with
  | 0 -> Row.of_array [||]
  | 1 -> Row.of_array [| cell dict cols 0 i |]
  | 2 -> Row.of_array [| cell dict cols 0 i; cell dict cols 1 i |]
  | 3 -> Row.of_array [| cell dict cols 0 i; cell dict cols 1 i; cell dict cols 2 i |]
  | _ -> Row.of_array (Array.init a (fun c -> cell dict cols c i))

(* With a rank-ordered dictionary code order is the canonical row order,
   so nothing boxed is ever compared: a batch that passed through
   [canon] (or kept an operand's order) decodes as it stands, any other
   takes one [canon] first. *)
let to_relation dict b =
  let a = b.arity in
  if Dict.ordered dict then begin
    let b = if b.sorted then dense b else canon b in
    Relation.of_sorted_rows ~arity:a (Array.init b.nrows (row_at dict b.cols a))
  end
  else
    let b = dense b in
    Relation.of_rows ~arity:a (Array.init b.nrows (row_at dict b.cols a))

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

(* [injective ~arity ~equated cols]: projecting duplicate-free rows of
   [arity] columns onto [cols] keeps them distinct when every column is
   kept or, through the column equalities [equated] that hold on every
   row, equal to a kept one — two rows that agree on the kept columns
   then agree everywhere.  A permutation is the case with nothing
   equated. *)
let injective ~arity ~equated cols =
  let parent = Array.init arity Fun.id in
  let rec find c = if parent.(c) = c then c else find parent.(c) in
  List.iter (fun (x, y) -> parent.(find x) <- find y) equated;
  let kept = Array.make arity false in
  Array.iter (fun c -> kept.(find c) <- true) cols;
  let rec all c = c >= arity || (kept.(find c) && all (c + 1)) in
  all 0

(* The projection onto [cols] of [n] duplicate-free source rows of
   [arity] columns, [sorted] as the source batch, on which [equated]
   holds; [column c] is source column [c], dense.  For {!project} and
   {!gather_project}: an injective projection has no duplicates to
   remove, and keeps the source order (sorted when it keeps a prefix);
   any other goes through [canon]. *)
let projection ~arity ~sorted ~equated cols column n =
  let res =
    { arity = Array.length cols; nrows = n; cols = Array.map column cols; sel = None;
      sorted = false }
  in
  if not (injective ~arity ~equated cols) then canon res
  else { res with sorted = sorted && Array.for_all2 ( = ) cols (Array.init res.arity Fun.id) }

(* batches never mutate their columns, so the kept ones are shared *)
let project cols b =
  Array.iter (check_col "project" b) cols;
  let b = dense b in
  projection ~arity:b.arity ~sorted:b.sorted ~equated:[] cols (fun c -> b.cols.(c)) b.nrows

(* ------------------------------- joins ------------------------------- *)

(* A join's matches: which left row meets which right row, in the output
   order — explicit pair lists, or (a product) every pair, left-major.
   The count settles the join node; columns are gathered only on demand,
   all of them for a plain join and the kept ones under a projection. *)
type source =
  | Pairs of int array * int array  (* [li.(x)], [ri.(x)]: match [x]'s rows *)
  | Cross

type matches = {
  left : t;  (* dense *)
  right : t;  (* dense *)
  equated : (int * int) list;  (* joined columns equal on every match *)
  count : int;
  source : source;
  ordered : bool;  (* the joined batch's [sorted] flag *)
}

let matched m = m.count

let pair_matches ~pairs a b li ri k =
  { left = a;
    right = b;
    equated = List.map (fun (i, j) -> (i, a.arity + j)) pairs;
    count = k;
    source = Pairs (li, ri);
    ordered = a.sorted && b.sorted }

let no_matches a b = { (pair_matches ~pairs:[] a b [||] [||] 0) with ordered = true }

(* joined column [c] of the matches *)
let materialize_column m c =
  let k = m.count and la = m.left.arity in
  let out = Array.make k 0 in
  (match m.source with
  | Pairs (li, ri) ->
    let src, ids = if c < la then (m.left.cols.(c), li) else (m.right.cols.(c - la), ri) in
    for x = 0 to k - 1 do
      Array.unsafe_set out x (Array.unsafe_get src (Array.unsafe_get ids x))
    done
  | Cross ->
    (* left-major: each left row repeated, the right rows tiled *)
    let w = m.right.nrows in
    if c < la then
      for i = 0 to m.left.nrows - 1 do
        Array.fill out (i * w) w (Array.unsafe_get m.left.cols.(c) i)
      done
    else
      for i = 0 to m.left.nrows - 1 do
        Array.blit m.right.cols.(c - la) 0 out (i * w) w
      done);
  out

let gather m =
  let arity = m.left.arity + m.right.arity in
  { arity; nrows = m.count; cols = Array.init arity (materialize_column m); sel = None;
    sorted = m.ordered }

let gather_project cols m =
  let arity = m.left.arity + m.right.arity in
  Array.iter
    (fun c ->
      if c < 0 || c >= arity then
        invalid_arg (Printf.sprintf "Columnar.gather_project: column %d of arity %d" c arity))
    cols;
  projection ~arity ~sorted:m.ordered ~equated:m.equated cols (materialize_column m) m.count

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
     exact code-for-code verification on collisions.
   With no pairs every two rows match: the product. *)
let join pairs a b =
  List.iter
    (fun (i, j) ->
      check_col "join" a i;
      check_col "join" b j)
    pairs;
  let a = dense a and b = dense b in
  if a.nrows = 0 || b.nrows = 0 then no_matches a b
  else if pairs = [] then
    (* left-major: sorted left groups, each repeating sorted right rows *)
    { (pair_matches ~pairs a b [||] [||] (a.nrows * b.nrows)) with source = Cross }
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
    pair_matches ~pairs a b li ri npairs
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

(* [join pairs a b] where [b] is a dense base batch and [ix] indexes
   [b]'s column of the first pair: every left row looks its key up in
   the postings, the remaining pairs are checked per match, and no table
   is built.  Left rows probe in order and postings ascend, so the output
   order is [join]'s.  With a residual the postings only bound the
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
    if a.nrows = 0 || b.nrows = 0 then Some (no_matches a b)
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
        Some (pair_matches ~pairs a b li ri !k)
      end
    end

(* [join pairs a b] where [a] is a dense base batch and [ix] indexes
   [a]'s column of the first pair: the right rows probe, and the matches
   are then sorted back into [join]'s left-major order (left row, then
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
    if a.nrows = 0 || m = 0 then Some (no_matches a b)
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
        if not !ordered then sort_keys keys ~bound:(a.nrows * m);
        let li = Array.map (fun key -> key / m) keys and ri = Array.map (fun key -> key mod m) keys in
        Some (pair_matches ~pairs a b li ri !k)
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
  canon { arity = a.arity; nrows = n + m; cols; sel = None; sorted = false }

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
