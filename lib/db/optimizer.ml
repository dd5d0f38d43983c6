(* Plan optimizer for the relational algebra.

   Three cooperating rewrites, all semantics-preserving on set semantics
   (QCheck-verified in test/test_optimizer.ml):

   - selection pushdown: conjuncts of a [Select] sink toward the leaves —
     through [Project] (column remapping), into both sides of [Union] and
     [Diff], and onto the side of a [Product]/[Join] they mention;
   - join introduction: an equality [Col i = Col j] straddling a
     [Product] turns the product into a hash [Join] (additional
     straddling equalities extend an existing join's key);
   - projection pushdown: a [Project] narrows the operands of products,
     joins and selections to the columns actually consumed above
     (difference blocks pushdown: π(A − B) ≠ πA − πB);

   plus pruning of trivial nodes (identity projections, empty and
   nullary-true literals, nested selects/projects). *)

open Relalg

exception Unknown_arity of string

let arity ~arity_of plan =
  let rec go = function
    | Rel name -> (
      match arity_of name with
      | Some a -> a
      | None -> raise (Unknown_arity name))
    | Lit r -> Relation.arity r
    | Select (_, p) -> go p
    | Project (cols, _) -> List.length cols
    | Product (p, q) | Join (_, p, q) -> go p + go q
    | Union (p, _) | Diff (p, _) -> go p
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Condition utilities                                                  *)
(* ------------------------------------------------------------------ *)

let rec arg_cols = function Col i -> [ i ] | Const _ -> []

and cond_cols = function
  | Eq (a, b) -> arg_cols a @ arg_cols b
  | Domain_pred (_, args) -> List.concat_map arg_cols args
  | Not c -> cond_cols c
  | And_c (a, b) | Or_c (a, b) -> cond_cols a @ cond_cols b

let remap_arg f = function Col i -> Col (f i) | Const v -> Const v

let rec remap_cond f = function
  | Eq (a, b) -> Eq (remap_arg f a, remap_arg f b)
  | Domain_pred (p, args) -> Domain_pred (p, List.map (remap_arg f) args)
  | Not c -> Not (remap_cond f c)
  | And_c (a, b) -> And_c (remap_cond f a, remap_cond f b)
  | Or_c (a, b) -> Or_c (remap_cond f a, remap_cond f b)

let rec cond_conjuncts = function
  | And_c (a, b) -> cond_conjuncts a @ cond_conjuncts b
  | c -> [ c ]

let conj_cond = function
  | [] -> None
  | c :: rest -> Some (List.fold_left (fun acc c -> And_c (acc, c)) c rest)

(* wrap [p] in a selection over the remaining conjuncts, if any *)
let reselect conds p =
  match conj_cond conds with None -> p | Some c -> Select (c, p)

let nth_col cols k =
  match List.nth_opt cols k with
  | Some c -> c
  | None -> invalid_arg "Optimizer: condition column out of projection range"

let pos_in needed k =
  let rec go i = function
    | [] -> invalid_arg "Optimizer: missing needed column"
    | c :: _ when c = k -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 needed

let identity_cols n = List.init n (fun i -> i)

(* ------------------------------------------------------------------ *)
(* The rewrite                                                          *)
(* ------------------------------------------------------------------ *)

let optimize_exn ~arity_of plan =
  let arity p = arity ~arity_of p in
  (* push a conjunction of selection conditions down into [p] *)
  let rec push_select conds p =
    match conds with
    | [] -> opt p
    | _ -> (
      match p with
      | Select (c, q) -> push_select (conds @ cond_conjuncts c) q
      | Project (cols, q) ->
        (* σ_c (π_cols q) = π_cols (σ_{c[cols]} q) *)
        let remapped = List.map (remap_cond (nth_col cols)) conds in
        push_project cols (push_select remapped q)
      | Product (q, r) | Join (_, q, r) -> (
        let na = arity q in
        let classify c =
          let cs = cond_cols c in
          if List.for_all (fun i -> i < na) cs then `Left c
          else if List.for_all (fun i -> i >= na) cs then `Right (remap_cond (fun i -> i - na) c)
          else
            match c with
            | Eq (Col i, Col j) when i < na && j >= na -> `Pair (i, j - na)
            | Eq (Col j, Col i) when i < na && j >= na -> `Pair (i, j - na)
            | c -> `Rest c
        in
        let classified = List.map classify conds in
        let left = List.filter_map (function `Left c -> Some c | _ -> None) classified in
        let right = List.filter_map (function `Right c -> Some c | _ -> None) classified in
        let pairs = List.filter_map (function `Pair ij -> Some ij | _ -> None) classified in
        let rest = List.filter_map (function `Rest c -> Some c | _ -> None) classified in
        let q' = push_select left q and r' = push_select right r in
        match (p, pairs) with
        | Product _, [] -> reselect rest (Product (q', r'))
        | Product _, _ -> reselect rest (Join (pairs, q', r'))
        | Join (existing, _, _), _ -> reselect rest (Join (existing @ pairs, q', r'))
        | _ -> assert false)
      | Union (q, r) -> Union (push_select conds q, push_select conds r)
      | Diff (q, r) ->
        (* σ(A − B) = σA − σB *)
        Diff (push_select conds q, push_select conds r)
      | Rel _ | Lit _ -> reselect conds (opt p))
  (* push a projection down into [p]; the result computes π_cols p *)
  and push_project cols p =
    let default () =
      let p' = opt p in
      if cols = identity_cols (arity p') then p' else Project (cols, p')
    in
    match p with
    | Project (cols', q) -> push_project (List.map (nth_col cols') cols) q
    | Select (c, q) ->
      let needed = List.sort_uniq compare (cols @ cond_cols c) in
      if List.length needed < arity q then
        let q' = push_project needed q in
        let inner = Select (remap_cond (pos_in needed) c, q') in
        let outer = List.map (pos_in needed) cols in
        if outer = identity_cols (List.length needed) then inner else Project (outer, inner)
      else default ()
    | Product (q, r) | Join (_, q, r) -> (
      let na = arity q and nb = arity r in
      let pairs = match p with Join (pairs, _, _) -> pairs | _ -> [] in
      let needed_left =
        List.sort_uniq compare (List.filter (fun i -> i < na) cols @ List.map fst pairs)
      in
      let needed_right =
        List.sort_uniq compare
          (List.map (fun i -> i - na) (List.filter (fun i -> i >= na) cols)
          @ List.map snd pairs)
      in
      if List.length needed_left < na || List.length needed_right < nb then begin
        let q' = push_project needed_left q and r' = push_project needed_right r in
        let remap i =
          if i < na then pos_in needed_left i
          else List.length needed_left + pos_in needed_right (i - na)
        in
        let pairs' =
          List.map (fun (i, j) -> (pos_in needed_left i, pos_in needed_right j)) pairs
        in
        let core =
          match p with Product _ -> Product (q', r') | _ -> Join (pairs', q', r')
        in
        let outer = List.map remap cols in
        if outer = identity_cols (List.length needed_left + List.length needed_right) then
          core
        else Project (outer, core)
      end
      else default ())
    | Union (q, r) -> Union (push_project cols q, push_project cols r)
    | Diff _ | Rel _ | Lit _ -> default ()
  and opt p =
    match p with
    | Rel _ | Lit _ -> p
    | Select (c, q) -> push_select (cond_conjuncts c) q
    | Project (cols, q) -> push_project cols q
    | Product (q, r) -> Product (opt q, opt r)
    | Join (pairs, q, r) -> Join (pairs, opt q, opt r)
    | Union (q, r) -> Union (opt q, opt r)
    | Diff (q, r) -> Diff (opt q, opt r)
  in
  (* prune trivial nodes, bottom-up *)
  let is_empty_lit = function Lit r -> Relation.is_empty r | _ -> false in
  let is_true0 = function
    | Lit r -> Relation.arity r = 0 && not (Relation.is_empty r)
    | _ -> false
  in
  let rec simplify p =
    match p with
    | Rel _ | Lit _ -> p
    | Select (c, q) ->
      let q' = simplify q in
      if is_empty_lit q' then q' else Select (c, q')
    | Project (cols, q) ->
      let q' = simplify q in
      if is_empty_lit q' then Lit (Relation.empty ~arity:(List.length cols))
      else if cols = identity_cols (arity q') then q'
      else Project (cols, q')
    | Product (q, r) ->
      let q' = simplify q and r' = simplify r in
      if is_empty_lit q' || is_empty_lit r' then
        Lit (Relation.empty ~arity:(arity q' + arity r'))
      else if is_true0 q' then r'
      else if is_true0 r' then q'
      else Product (q', r')
    | Join (pairs, q, r) ->
      let q' = simplify q and r' = simplify r in
      if is_empty_lit q' || is_empty_lit r' then
        Lit (Relation.empty ~arity:(arity q' + arity r'))
      else if pairs = [] && is_true0 q' then r'
      else if pairs = [] && is_true0 r' then q'
      else Join (pairs, q', r')
    | Union (q, r) ->
      let q' = simplify q and r' = simplify r in
      if is_empty_lit q' then r' else if is_empty_lit r' then q' else Union (q', r')
    | Diff (q, r) ->
      let q' = simplify q and r' = simplify r in
      if is_empty_lit q' || is_empty_lit r' then q' else Diff (q', r')
  in
  (* two rounds: pruning can expose further pushdown and vice versa *)
  simplify (opt (simplify (opt plan)))

(* ------------------------------------------------------------------ *)
(* Cost model                                                           *)
(* ------------------------------------------------------------------ *)

module Stats = struct
  type t = {
    card_of : string -> float option;  (* base relation cardinality *)
    distinct_of : string -> int -> float option;  (* per-column distinct values *)
    profile : (string, float) Hashtbl.t;  (* plan fingerprint -> observed card *)
  }

  let none =
    { card_of = (fun _ -> None);
      distinct_of = (fun _ _ -> None);
      profile = Hashtbl.create 1 }

  let of_state state =
    (* One Stats value is shared across a whole batch run (and across the
       requests of a serve session), so the memo tables are consulted and
       filled under a mutex; the distinct count itself is computed outside
       the lock — two workers racing on the same cold column both count,
       both store the same number. *)
    let lock = Mutex.create () in
    let locked f =
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
    in
    let cards = Hashtbl.create 8 and distincts = Hashtbl.create 8 in
    let card_of name =
      match locked (fun () -> Hashtbl.find_opt cards name) with
      | Some c -> c
      | None ->
        let c =
          match State.relation state name with
          | r -> Some (float_of_int (Array.length (Relation.rows r)))
          | exception Not_found -> None
        in
        locked (fun () -> Hashtbl.replace cards name c);
        c
    in
    let distinct_of name col =
      match locked (fun () -> Hashtbl.find_opt distincts (name, col)) with
      | Some d -> d
      | None ->
        let d =
          match State.relation state name with
          | exception Not_found -> None
          | r when col < 0 || col >= Relation.arity r -> None
          | r ->
            let seen = Hashtbl.create 64 in
            Array.iter (fun row -> Hashtbl.replace seen (Row.get row col) ()) (Relation.rows r);
            Some (float_of_int (Hashtbl.length seen))
        in
        locked (fun () -> Hashtbl.replace distincts (name, col) d);
        d
    in
    { card_of; distinct_of; profile = Hashtbl.create 8 }

  let with_profile entries t =
    let profile = Hashtbl.copy t.profile in
    List.iter (fun (fp, card) -> Hashtbl.replace profile fp card) entries;
    { t with profile }

  let of_profile entries = with_profile entries none
end

(* cardinality assumed for a relation the stats know nothing about *)
let default_leaf_card = 100.

let estimate (s : Stats.t) ~arity_of plan =
  let arity p = arity ~arity_of p in
  let rec distinct p c =
    match p with
    | Rel name -> s.Stats.distinct_of name c
    | Lit r ->
      if c < 0 || c >= Relation.arity r then None
      else begin
        let seen = Hashtbl.create 16 in
        Array.iter (fun row -> Hashtbl.replace seen (Row.get row c) ()) (Relation.rows r);
        Some (float_of_int (Hashtbl.length seen))
      end
    | Select (_, q) -> distinct q c
    | Project (cols, q) -> (
      match List.nth_opt cols c with Some c' -> distinct q c' | None -> None)
    | Product (q, r) | Join (_, q, r) ->
      let na = arity q in
      if c < na then distinct q c else distinct r (c - na)
    | Union (q, r) -> (
      match (distinct q c, distinct r c) with
      | Some a, Some b -> Some (a +. b)
      | _ -> None)
    | Diff (q, _) -> distinct q c
  and selectivity p = function
    | Eq (Col i, Const _) | Eq (Const _, Col i) -> (
      (* a point lookup keeps one value out of the column's distincts *)
      match distinct p i with Some d when d > 0. -> 1. /. d | _ -> 0.1)
    | Eq _ -> 0.1
    | Domain_pred _ -> 0.5
    | Not c -> Float.max 0.05 (1. -. selectivity p c)
    | And_c (a, b) -> selectivity p a *. selectivity p b
    | Or_c (a, b) -> Float.min 1. (selectivity p a +. selectivity p b)
  and est p =
    (* an observed cardinality for this exact subplan trumps the formula *)
    match Hashtbl.find_opt s.Stats.profile (fingerprint p) with
    | Some observed -> observed
    | None -> (
      match p with
      | Rel name -> (
        match s.Stats.card_of name with Some c -> c | None -> default_leaf_card)
      | Lit r -> float_of_int (Array.length (Relation.rows r))
      | Select (c, q) -> selectivity q c *. est q
      | Project (_, q) -> est q
      | Product (q, r) -> est q *. est r
      | Join (pairs, q, r) ->
        (* per key pair, divide by the larger distinct count (classical
           containment-of-values assumption) *)
        let base = est q *. est r in
        List.fold_left
          (fun acc (i, j) ->
            let d =
              match (distinct q i, distinct r j) with
              | Some a, Some b -> Float.max a b
              | Some a, None | None, Some a -> a
              | None, None -> Float.max 1. (Float.max (est q) (est r) /. 10.)
            in
            acc /. Float.max 1. d)
          base pairs
      | Union (q, r) -> est q +. est r
      | Diff (q, _) -> est q)
  in
  est plan

let est_vs_observed s ~arity_of (treport : Fq_core.Telemetry.report) plan =
  let seen = Hashtbl.create 16 in
  let rec walk acc node =
    let fp = fingerprint node in
    let acc =
      if Hashtbl.mem seen fp then acc
      else begin
        Hashtbl.add seen fp ();
        let est = match estimate s ~arity_of node with e -> Some e | exception _ -> None in
        (fp, node, est, List.assoc_opt (node_metric fp) treport.histograms) :: acc
      end
    in
    match node with
    | Rel _ | Lit _ -> acc
    | Select (_, p) | Project (_, p) -> walk acc p
    | Product (p, q) | Join (_, p, q) | Union (p, q) | Diff (p, q) -> walk (walk acc p) q
  in
  List.rev (walk [] plan)

(* ------------------------------------------------------------------ *)
(* Cost-based passes: join ordering and predicate placement             *)
(* ------------------------------------------------------------------ *)

(* Flatten a maximal Join/Product spine into its factors (in original
   column order) and the equijoin predicates over the concatenated
   columns.  Every predicate connects two distinct factors. *)
let flatten_spine ~arity_of plan =
  let rec go p =
    match p with
    | Product (q, r) | Join (_, q, r) ->
      let lq, pq, na = go q in
      let lr, pr, nb = go r in
      let pairs = match p with Join (pairs, _, _) -> pairs | _ -> [] in
      ( lq @ lr,
        pq
        @ List.map (fun (i, j) -> (i + na, j + na)) pr
        @ List.map (fun (i, j) -> (i, j + na)) pairs,
        na + nb )
    | _ -> ([ p ], [], arity ~arity_of p)
  in
  go plan

(* estimated cardinality summed over a spine's internal nodes — the cost
   a given join order pays in intermediate results *)
let rec spine_cost est p =
  match p with
  | Product (q, r) | Join (_, q, r) -> est p +. spine_cost est q +. spine_cost est r
  | _ -> 0.

(* Greedy left-deep reorder of one Join/Product spine.  The engine
   builds the hash table on the {e right} operand and probes with the
   left, so the accumulated prefix stays on the left (probe) and each
   added factor — picked to minimize the next intermediate — becomes a
   build side.  The original column order is restored by a final
   permutation projection (which never needs dedup).  The reordered plan
   is kept only when its estimated intermediate volume beats the
   original spine's by a margin, so noisy stats do not churn plans. *)
let reorder_spine stats ~arity_of recurse plan =
  let leaves, preds, total = flatten_spine ~arity_of plan in
  match leaves with
  | [] | [ _ ] -> plan
  | _ ->
    let est p = estimate stats ~arity_of p in
    let leaves = Array.of_list (List.map recurse leaves) in
    let nl = Array.length leaves in
    let offs = Array.make nl 0 and ars = Array.make nl 0 in
    let off = ref 0 in
    Array.iteri
      (fun i l ->
        offs.(i) <- !off;
        let a = arity ~arity_of l in
        ars.(i) <- a;
        off := !off + a)
      leaves;
    let leaf_est = Array.map est leaves in
    (* start from the largest factor: it is everyone's probe side *)
    let start = ref 0 in
    for i = 1 to nl - 1 do
      if leaf_est.(i) > leaf_est.(!start) then start := i
    done;
    let used = Array.make nl false in
    used.(!start) <- true;
    let colpos = Array.make total (-1) in
    for c = 0 to ars.(!start) - 1 do
      colpos.(offs.(!start) + c) <- c
    done;
    let current = ref leaves.(!start) in
    let width = ref ars.(!start) in
    let remaining = ref preds in
    let cost = ref 0. in
    let in_leaf j g = g >= offs.(j) && g < offs.(j) + ars.(j) in
    for _ = 2 to nl do
      let best = ref (-1) and best_plan = ref !current and best_score = ref infinity in
      let best_pairs_used = ref [] in
      for j = 0 to nl - 1 do
        if not used.(j) then begin
          let connecting, _ =
            List.partition
              (fun (g1, g2) ->
                (colpos.(g1) >= 0 && in_leaf j g2) || (colpos.(g2) >= 0 && in_leaf j g1))
              !remaining
          in
          let local =
            List.map
              (fun (g1, g2) ->
                if colpos.(g1) >= 0 then (colpos.(g1), g2 - offs.(j))
                else (colpos.(g2), g1 - offs.(j)))
              connecting
          in
          let candidate =
            if local = [] then Product (!current, leaves.(j))
            else Join (local, !current, leaves.(j))
          in
          let score = est candidate in
          if
            !best < 0 || score < !best_score
            || (score = !best_score && leaf_est.(j) < leaf_est.(!best))
          then begin
            best := j;
            best_plan := candidate;
            best_score := score;
            best_pairs_used := connecting
          end
        end
      done;
      let j = !best in
      used.(j) <- true;
      for c = 0 to ars.(j) - 1 do
        colpos.(offs.(j) + c) <- !width + c
      done;
      width := !width + ars.(j);
      current := !best_plan;
      remaining := List.filter (fun pr -> not (List.memq pr !best_pairs_used)) !remaining;
      cost := !cost +. !best_score
    done;
    let reordered =
      let outer = List.init total (fun g -> colpos.(g)) in
      if outer = identity_cols total then !current else Project (outer, !current)
    in
    if !cost < 0.95 *. spine_cost est plan then reordered else plan

(* conditions whose every atom calls out to a domain predicate: these
   decode values and cross the domain callback per row, so where they
   run matters *)
let rec domain_only = function
  | Domain_pred _ -> true
  | Eq _ -> false
  | Not c -> domain_only c
  | And_c (a, b) | Or_c (a, b) -> domain_only a && domain_only b

(* Pushdown-vs-materialize: the rewrite pipeline sinks every selection
   to the leaves, but a domain-predicate filter below a {e selective}
   join then pays one callback per base row.  When the stats say the
   join output is much smaller than the filtered side, hoist the filter
   above the join and let the join shrink the rows first. *)
let hoist_domain_preds stats ~arity_of plan =
  let est p = estimate stats ~arity_of p in
  let rec go p =
    match p with
    | Rel _ | Lit _ -> p
    | Select (c, q) -> Select (c, go q)
    | Project (cols, q) -> Project (cols, go q)
    | Product (q, r) -> Product (go q, go r)
    | Union (q, r) -> Union (go q, go r)
    | Diff (q, r) -> Diff (go q, go r)
    | Join (pairs, q, r) -> (
      let q = go q and r = go r in
      let joined =
        match q with
        | Select (c, q') when domain_only c && est (Join (pairs, q', r)) < 0.5 *. est q' ->
          Select (c, Join (pairs, q', r))
        | _ -> Join (pairs, q, r)
      in
      match joined with
      | Join (pairs, q, Select (c, r'))
        when domain_only c && est (Join (pairs, q, r')) < 0.5 *. est r' ->
        let na = arity ~arity_of q in
        Select (remap_cond (fun i -> i + na) c, Join (pairs, q, r'))
      | p -> p)
  in
  go plan

let cost_based_passes stats ~arity_of plan =
  let rec reorder p =
    match p with
    | Product _ | Join _ -> reorder_spine stats ~arity_of reorder p
    | Rel _ | Lit _ -> p
    | Select (c, q) -> Select (c, reorder q)
    | Project (cols, q) -> Project (cols, reorder q)
    | Union (q, r) -> Union (reorder q, reorder r)
    | Diff (q, r) -> Diff (reorder q, reorder r)
  in
  hoist_domain_preds stats ~arity_of (reorder plan)

let optimize ?stats ~arity_of plan =
  let base =
    match optimize_exn ~arity_of plan with
    | optimized -> optimized
    | exception Unknown_arity _ -> plan
    | exception Invalid_argument _ -> plan
  in
  match stats with
  | None -> base
  | Some s -> (
    (* the cost passes run after the rewrite pipeline: they deliberately
       move selections back {e up}, so the pipeline must not rerun *)
    match cost_based_passes s ~arity_of base with
    | costed -> costed
    | exception Unknown_arity _ -> base
    | exception Invalid_argument _ -> base)

let optimize_for ?stats ~schema plan = optimize ?stats ~arity_of:(Schema.arity schema) plan
