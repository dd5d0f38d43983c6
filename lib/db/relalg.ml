type arg =
  | Col of int
  | Const of Value.t

type cond =
  | Eq of arg * arg
  | Domain_pred of string * arg list
  | Not of cond
  | And_c of cond * cond
  | Or_c of cond * cond

type t =
  | Rel of string
  | Lit of Relation.t
  | Select of cond * t
  | Project of int list * t
  | Product of t * t
  | Join of (int * int) list * t * t
  | Union of t * t
  | Diff of t * t

let rec cond_max_col = function
  | Eq (a, b) -> max (arg_max_col a) (arg_max_col b)
  | Domain_pred (_, args) -> List.fold_left (fun m a -> max m (arg_max_col a)) (-1) args
  | Not c -> cond_max_col c
  | And_c (a, b) | Or_c (a, b) -> max (cond_max_col a) (cond_max_col b)

and arg_max_col = function Col i -> i | Const _ -> -1

let arity_check ~schema plan =
  let ( let* ) = Result.bind in
  let rec go = function
    | Rel name -> (
      match Schema.arity schema name with
      | Some a -> Ok a
      | None -> Error (Printf.sprintf "unknown relation %s" name))
    | Lit r -> Ok (Relation.arity r)
    | Select (cond, p) ->
      let* a = go p in
      if cond_max_col cond >= a then
        Error (Printf.sprintf "selection touches column %d of arity %d" (cond_max_col cond) a)
      else Ok a
    | Project (cols, p) ->
      let* a = go p in
      if List.exists (fun c -> c < 0 || c >= a) cols then
        Error (Printf.sprintf "projection out of range for arity %d" a)
      else Ok (List.length cols)
    | Product (p, q) ->
      let* a = go p in
      let* b = go q in
      Ok (a + b)
    | Join (pairs, p, q) ->
      let* a = go p in
      let* b = go q in
      if List.exists (fun (i, j) -> i < 0 || i >= a || j < 0 || j >= b) pairs then
        Error (Printf.sprintf "join columns out of range for arities %d and %d" a b)
      else Ok (a + b)
    | Union (p, q) | Diff (p, q) ->
      let* a = go p in
      let* b = go q in
      if a <> b then Error (Printf.sprintf "arity mismatch %d vs %d" a b) else Ok a
  in
  go plan

let no_domain_pred name _ =
  invalid_arg (Printf.sprintf "Relalg.eval: no evaluator for domain predicate %s" name)

(* ------------------------------------------------------------------ *)
(* Plan fingerprints                                                    *)
(* ------------------------------------------------------------------ *)

let pp_arg_fp buf = function
  | Col i -> Buffer.add_string buf (Printf.sprintf "#%d" i)
  | Const v -> Buffer.add_string buf (Value.to_string v)

let rec pp_cond_fp buf = function
  | Eq (a, b) ->
    pp_arg_fp buf a;
    Buffer.add_char buf '=';
    pp_arg_fp buf b
  | Domain_pred (p, args) ->
    Buffer.add_string buf p;
    Buffer.add_char buf '(';
    List.iter
      (fun a ->
        pp_arg_fp buf a;
        Buffer.add_char buf ',')
      args;
    Buffer.add_char buf ')'
  | Not c ->
    Buffer.add_char buf '~';
    pp_cond_fp buf c
  | And_c (a, b) ->
    Buffer.add_char buf '(';
    pp_cond_fp buf a;
    Buffer.add_char buf '&';
    pp_cond_fp buf b;
    Buffer.add_char buf ')'
  | Or_c (a, b) ->
    Buffer.add_char buf '(';
    pp_cond_fp buf a;
    Buffer.add_char buf '|';
    pp_cond_fp buf b;
    Buffer.add_char buf ')'

let cond_fp c =
  let buf = Buffer.create 32 in
  pp_cond_fp buf c;
  Buffer.contents buf

let lit_fp r =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (Printf.sprintf "%d:%d" (Relation.arity r) (Relation.cardinal r));
  Array.iter (fun row -> Buffer.add_string buf (string_of_int (Row.hash row))) (Relation.rows r);
  Buffer.contents buf

(* Structural digest, computed bottom-up so a whole plan is linear in its
   size.  [annotate] returns one (node, fingerprint) pair per node so an
   evaluator can attribute telemetry to post-optimization plan nodes. *)
let annotate plan =
  let acc = ref [] in
  let rec go p =
    let d =
      match p with
      | Rel name -> Digest.string ("R:" ^ name)
      | Lit r -> Digest.string ("L:" ^ lit_fp r)
      | Select (c, q) -> Digest.string ("S:" ^ cond_fp c ^ go q)
      | Project (cols, q) ->
        Digest.string ("P:" ^ String.concat "," (List.map string_of_int cols) ^ ":" ^ go q)
      | Product (q, r) ->
        let dq = go q in
        let dr = go r in
        Digest.string ("X:" ^ dq ^ dr)
      | Join (pairs, q, r) ->
        let dq = go q in
        let dr = go r in
        Digest.string
          ("J:"
          ^ String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs)
          ^ ":" ^ dq ^ dr)
      | Union (q, r) ->
        let dq = go q in
        let dr = go r in
        Digest.string ("U:" ^ dq ^ dr)
      | Diff (q, r) ->
        let dq = go q in
        let dr = go r in
        Digest.string ("D:" ^ dq ^ dr)
    in
    acc := (p, String.sub (Digest.to_hex d) 0 8) :: !acc;
    d
  in
  ignore (go plan);
  !acc

let fingerprint plan =
  match annotate plan with
  | (_, fp) :: _ -> fp
  | [] -> assert false

let card_metric = "relalg.node_card"
let node_metric fp = card_metric ^ "." ^ fp

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

module T = Fq_core.Telemetry

(* Every operator charges one unit plus the cardinality it materialized
   to the ambient budget — so a governed front-end bounds even plans
   evaluated deep inside a compiled tier.  [Budget.Exhausted] propagates;
   front-ends [guard].  Telemetry sees each materialization too: the
   per-node output-cardinality histograms (aggregate, and keyed by the
   post-optimization node fingerprint while a recording is active) are
   what the cost model's stats profile is built from. *)
let make_settle ~fps node card =
  Fq_core.Fault.hit "relalg.node";
  T.count "relalg.nodes";
  T.observe card_metric (float_of_int card);
  (match fps with
  | [] -> ()
  | _ -> (
    match List.assq_opt node fps with
    | Some fp -> T.observe (node_metric fp) (float_of_int card)
    | None -> ()));
  Fq_core.Budget.charge_ambient (1 + card)

(* The state's columnar image — its dictionary (rank-ordered over the
   active domain) and every base relation encoded through it — is built
   once and memoized on the state via its engine-private slot.  The exn
   is the extensible carrier {!State} asks for; the payload is frozen
   after publication (evaluations only read it through overlays), except
   for the per-column index slots, which fill lazily. *)
type base = {
  batch : Columnar.t;
  indexes : Columnar.index option Atomic.t array;  (* one per column *)
}

exception Columnar_image of Columnar.Dict.t * (string, base) Hashtbl.t

let columnar_image state =
  match State.memo state with
  | Some (Columnar_image (dict, bases)) -> (dict, bases)
  | Some _ | None ->
    let dict = Columnar.Dict.of_sorted_values (State.active_domain state) in
    let bases = Hashtbl.create 8 in
    List.iter
      (fun (name, arity) ->
        Hashtbl.add bases name
          { batch = Columnar.of_relation dict (State.relation state name);
            indexes = Array.init arity (fun _ -> Atomic.make None) })
      (Schema.relations (State.schema state));
    (* fully built before the single-word publish: a concurrent reader
       sees either nothing or a complete image *)
    State.set_memo state (Columnar_image (dict, bases));
    (dict, bases)

(* Column [c]'s index, built on first use the way the image is published:
   completely, then one word.  Seats that race both build it; either
   result is the same, and the last write wins. *)
let column_index ~codes base c =
  match Atomic.get base.indexes.(c) with
  | Some ix -> ix
  | None ->
    let ix = Columnar.build_index ~codes base.batch c in
    Atomic.set base.indexes.(c) (Some ix);
    ix

(* [anchor cond]: the first conjunct [Eq (Col i, Const v)] (either way
   round) of a conjunctive condition, with the conjuncts left over.  No
   conjunct ahead of it may call a domain predicate: the scan evaluates
   conjuncts left to right and stops at the first false one, so a
   predicate behind the anchor sees exactly the anchor's rows, and the
   index path makes the same predicate calls. *)
let anchor cond =
  let rec conjuncts c acc =
    match c with And_c (a, b) -> conjuncts a (conjuncts b acc) | c -> c :: acc
  in
  let rec has_pred = function
    | Domain_pred _ -> true
    | Eq _ -> false
    | Not c -> has_pred c
    | And_c (a, b) | Or_c (a, b) -> has_pred a || has_pred b
  in
  let rec pick before = function
    | [] -> None
    | (Eq (Col i, Const v) | Eq (Const v, Col i)) :: after ->
      let rest =
        match List.rev_append before after with
        | [] -> None
        | c :: cs -> Some (List.fold_left (fun acc d -> And_c (acc, d)) c cs)
      in
      Some (i, v, rest)
    | c :: after -> if has_pred c then None else pick (c :: before) after
  in
  pick [] (conjuncts cond [])

let eval_columnar ~state ~settle ~domain_pred plan =
  let module C = Columnar in
  let base_dict, bases = columnar_image state in
  let codes = C.Dict.size base_dict in
  (* Plan literals get encoded into a per-evaluation overlay, keeping
     the shared image frozen.  Condition constants are never inserted:
     a [find] miss means the value occurs nowhere in the data, so the
     equality is uniformly false.  Literal-free plans (the common case)
     use the shared dictionary directly — no layer indirection on the
     decode path. *)
  let rec has_lit = function
    | Rel _ -> false
    | Lit _ -> true
    | Select (_, p) | Project (_, p) -> has_lit p
    | Product (p, q) | Join (_, p, q) | Union (p, q) | Diff (p, q) -> has_lit p || has_lit q
  in
  let dict = if has_lit plan then C.Dict.overlay base_dict else base_dict in
  let probes = ref 0 in
  let base_of name =
    match Hashtbl.find_opt bases name with
    | Some b -> b
    | None ->
      (* every scheme relation is in the image, so this name is outside
         the scheme *)
      invalid_arg (Printf.sprintf "Relalg.eval: unknown relation %s" name)
  in
  (* compile a condition to a predicate over the batch's logical rows *)
  let compile_cond cond (b : C.t) =
    let log = match b.C.sel with None -> fun i -> i | Some s -> fun i -> s.(i) in
    let col i =
      if i < 0 || i >= b.C.arity then
        invalid_arg (Printf.sprintf "Relalg.eval: condition column %d of arity %d" i b.C.arity)
      else b.C.cols.(i)
    in
    let rec comp = function
      | Eq (Col i, Col j) ->
        let ci = col i and cj = col j in
        fun r ->
          let p = log r in
          ci.(p) = cj.(p)
      | Eq (Col i, Const v) | Eq (Const v, Col i) -> (
        let ci = col i in
        match C.Dict.find dict v with
        | Some code -> fun r -> ci.(log r) = code
        | None -> fun _ -> false)
      | Eq (Const u, Const v) ->
        let x = Value.equal u v in
        fun _ -> x
      | Domain_pred (p, args) ->
        let evs =
          List.map
            (function
              | Col i ->
                let ci = col i in
                fun r -> C.Dict.decode dict ci.(log r)
              | Const v -> fun _ -> v)
            args
        in
        fun r -> domain_pred p (List.map (fun f -> f r) evs)
      | Not c ->
        let f = comp c in
        fun r -> not (f r)
      | And_c (a, b) ->
        let fa = comp a and fb = comp b in
        fun r -> fa r && fb r
      | Or_c (a, b) ->
        let fa = comp a and fb = comp b in
        fun r -> fa r || fb r
    in
    comp cond
  in
  (* [node] is a base relation that has a column [c] *)
  let base_col node c =
    match node with
    | Rel name -> c >= 0 && c < C.arity (base_of name).batch
    | _ -> false
  in
  (* Children are evaluated right-to-left, which fixes the order of the
     per-node fault hits and budget charges.  Access paths change only
     how a node's rows are found: a [Rel] child settles its full
     cardinality before the parent probes its index, so every node
     charges exactly what a scan would.  Likewise a projection of a join
     gathers only its kept columns, but the join still settles its full
     cardinality first. *)
  let rec go node =
    let out =
      match node with
      | Rel name -> (base_of name).batch
      | Lit r -> C.of_relation dict r
      | Select (cond, (Rel name as p)) -> (
        let b = go p in
        match anchor cond with
        | Some (i, v, rest) when base_col p i ->
          let code = match C.Dict.find dict v with Some code -> code | None -> -1 in
          incr probes;
          let sel = C.select_code (column_index ~codes (base_of name) i) b code in
          (match rest with None -> sel | Some c -> C.filter (compile_cond c sel) sel)
        | _ -> C.filter (compile_cond cond b) b)
      | Select (cond, p) ->
        let b = go p in
        C.filter (compile_cond cond b) b
      | Project (cols, (Product (p, q) as j)) -> gather_project cols j (matches [] p q)
      | Project (cols, (Join (pairs, p, q) as j)) -> gather_project cols j (matches pairs p q)
      | Project (cols, p) -> C.project (Array.of_list cols) (go p)
      | Product (p, q) -> C.gather (matches [] p q)
      | Join (pairs, p, q) -> C.gather (matches pairs p q)
      | Union (p, q) ->
        let bq = go q in
        let bp = go p in
        C.union bp bq
      | Diff (p, q) ->
        let bq = go q in
        let bp = go p in
        C.diff bp bq
    in
    settle node (C.nrows out);
    out
  (* the matches of [Join (pairs, p, q)] (no pairs: the product), found
     through an index when one side is a base relation *)
  and matches pairs p q =
    let bq = go q in
    let bp = go p in
    let probed =
      match (pairs, p, q) with
      | (_, j) :: _, _, Rel name when base_col q j ->
        C.join_index_right pairs bp bq (column_index ~codes (base_of name) j)
      | (i, _) :: _, Rel name, _ when base_col p i ->
        C.join_index_left pairs bp (column_index ~codes (base_of name) i) bq
      | _ -> None
    in
    match probed with
    | Some m ->
      incr probes;
      m
    | None -> C.join pairs bp bq
  (* the join node settles its full cardinality before the projection
     gathers and dedups its kept columns *)
  and gather_project cols join m =
    settle join (C.matched m);
    C.gather_project (Array.of_list cols) m
  in
  let out = go plan in
  (C.to_relation dict out, !probes)

let eval ~state ?(domain_pred = no_domain_pred) plan =
  T.with_span "relalg.eval" (fun () ->
      (* per-node attribution only while a collector is installed: the
         disabled path stays a single ref read per settle *)
      let fps = if T.enabled () then annotate plan else [] in
      let settle = make_settle ~fps in
      let rel, probes = eval_columnar ~state ~settle ~domain_pred plan in
      T.set_attr "out_card" (T.Int (Relation.cardinal rel));
      T.set_attr "index_probes" (T.Int probes);
      rel)

let rec size = function
  | Rel _ | Lit _ -> 1
  | Select (_, p) | Project (_, p) -> 1 + size p
  | Product (p, q) | Join (_, p, q) | Union (p, q) | Diff (p, q) -> 1 + size p + size q

let pp_arg fmt = function
  | Col i -> Format.fprintf fmt "#%d" i
  | Const v -> Value.pp fmt v

let rec pp_cond fmt = function
  | Eq (a, b) -> Format.fprintf fmt "%a = %a" pp_arg a pp_arg b
  | Domain_pred (p, args) ->
    Format.fprintf fmt "%s(%a)" p
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_arg)
      args
  | Not c -> Format.fprintf fmt "~(%a)" pp_cond c
  | And_c (a, b) -> Format.fprintf fmt "(%a & %a)" pp_cond a pp_cond b
  | Or_c (a, b) -> Format.fprintf fmt "(%a | %a)" pp_cond a pp_cond b

let rec pp fmt = function
  | Rel name -> Format.pp_print_string fmt name
  | Lit r ->
    if Relation.cardinal r <= 4 then Relation.pp fmt r
    else Format.fprintf fmt "<lit:%d tuples>" (Relation.cardinal r)
  | Select (c, p) -> Format.fprintf fmt "select[%a](%a)" pp_cond c pp p
  | Project (cols, p) ->
    Format.fprintf fmt "project[%a](%a)"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",") Format.pp_print_int)
      cols pp p
  | Product (p, q) -> Format.fprintf fmt "(%a x %a)" pp p pp q
  | Join (pairs, p, q) ->
    Format.fprintf fmt "(%a |x|[%a] %a)" pp p
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt ",")
         (fun fmt (i, j) -> Format.fprintf fmt "%d=%d" i j))
      pairs pp q
  | Union (p, q) -> Format.fprintf fmt "(%a U %a)" pp p pp q
  | Diff (p, q) -> Format.fprintf fmt "(%a - %a)" pp p pp q
