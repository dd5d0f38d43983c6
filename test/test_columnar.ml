(* Oracle properties for the columnar engine: on every well-formed plan
   [Relalg.eval] returns the answer of a naive tuple-list evaluator, and
   under a fuel budget it answers exactly when the oracle's per-node
   charge fits the fuel.

   The generators mirror test_optimizer.ml: arity-directed random plans
   over the schema A/1 B/2 C/3 with random small states, so
   Join/Union/Diff constraints hold by construction. *)

module Budget = Fq_core.Budget
module Relation = Fq_db.Relation
module Relalg = Fq_db.Relalg
module Optimizer = Fq_db.Optimizer
module Columnar = Fq_db.Columnar
module Schema = Fq_db.Schema
module State = Fq_db.State
module Value = Fq_db.Value
module Row = Fq_db.Row

let vi = Value.int
let schema = Schema.make [ ("A", 1); ("B", 2); ("C", 3) ]

(* ------------------------------------------------------------------ *)
(* Generators (the test_optimizer.ml shapes)                           *)
(* ------------------------------------------------------------------ *)

let gen_value = QCheck.Gen.map vi (QCheck.Gen.int_range 0 4)

let gen_rows arity =
  QCheck.Gen.(list_size (int_range 0 7) (list_repeat arity gen_value))

let gen_relation arity = QCheck.Gen.map (Relation.make ~arity) (gen_rows arity)

let gen_state =
  QCheck.Gen.(
    map3
      (fun a b c -> State.make ~schema [ ("A", a); ("B", b); ("C", c) ])
      (gen_relation 1) (gen_relation 2) (gen_relation 3))

let gen_arg arity =
  let open QCheck.Gen in
  if arity = 0 then map (fun v -> Relalg.Const v) gen_value
  else
    frequency
      [ (3, map (fun i -> Relalg.Col i) (int_range 0 (arity - 1)));
        (1, map (fun v -> Relalg.Const v) gen_value) ]

let rec gen_cond depth arity =
  let open QCheck.Gen in
  let eq = map2 (fun a b -> Relalg.Eq (a, b)) (gen_arg arity) (gen_arg arity) in
  if depth = 0 then eq
  else
    frequency
      [ (4, eq);
        (1, map (fun c -> Relalg.Not c) (gen_cond (depth - 1) arity));
        ( 2,
          map2
            (fun c d -> Relalg.And_c (c, d))
            (gen_cond (depth - 1) arity)
            (gen_cond (depth - 1) arity) );
        ( 1,
          map2
            (fun c d -> Relalg.Or_c (c, d))
            (gen_cond (depth - 1) arity)
            (gen_cond (depth - 1) arity) ) ]

(* The access-path shapes of the engine: a constant-anchored select
   over a base relation, and a join with a base relation on either side.
   Anchors range over values the state holds (0-4), a value absent
   everywhere (7), and one only a plan literal carries (9), which the
   evaluation's dictionary overlay holds but no base column does. *)
let rel_of_arity = function 1 -> "A" | 2 -> "B" | _ -> "C"

let gen_anchor =
  QCheck.Gen.(frequency [ (3, gen_value); (1, return (vi 7)); (1, return (vi 9)) ])

let gen_overlay_lit arity =
  QCheck.Gen.(
    map
      (fun rows -> Relalg.Lit (Relation.make ~arity (List.init arity (fun _ -> vi 9) :: rows)))
      (list_size (int_range 0 3) (list_repeat arity gen_anchor)))

let gen_indexed sub arity =
  let open QCheck.Gen in
  let select =
    int_range 0 (arity - 1) >>= fun i ->
    gen_anchor >>= fun v ->
    bool >>= fun flip ->
    let eq =
      if flip then Relalg.Eq (Relalg.Const v, Relalg.Col i)
      else Relalg.Eq (Relalg.Col i, Relalg.Const v)
    in
    frequency
      [ (2, return eq);
        (1, map (fun c -> Relalg.And_c (eq, c)) (gen_cond 1 arity));
        (1, map (fun c -> Relalg.And_c (c, eq)) (gen_cond 1 arity)) ]
    >>= fun cond ->
    let s = Relalg.Select (cond, Relalg.Rel (rel_of_arity arity)) in
    (* a literal alongside puts 9 into the overlay *)
    frequency [ (2, return s); (1, map (fun l -> Relalg.Union (s, l)) (gen_overlay_lit arity)) ]
  in
  let join () =
    int_range 1 (arity - 1) >>= fun a1 ->
    let a2 = arity - a1 in
    list_size (int_range 1 2) (pair (int_range 0 (a1 - 1)) (int_range 0 (a2 - 1)))
    >>= fun pairs ->
    let other a = frequency [ (2, sub a); (1, gen_overlay_lit a) ] in
    bool >>= fun rel_right ->
    if rel_right then
      map (fun p -> Relalg.Join (pairs, p, Relalg.Rel (rel_of_arity a2))) (other a1)
    else map (fun q -> Relalg.Join (pairs, Relalg.Rel (rel_of_arity a1), q)) (other a2)
  in
  if arity >= 2 then oneof [ select; join () ] else select

(* The columns of [Join (pairs, p, q)], [p] of arity [a1], left after
   dropping every right column a pair equates to a left one: projecting
   onto them is injective on the join. *)
let join_kept a1 a2 pairs =
  List.filter
    (fun c -> not (List.exists (fun (_, j) -> c = a1 + j) pairs))
    (List.init (a1 + a2) Fun.id)

(* A projection of a join, which the engine answers by gathering only
   the kept columns from the join's matches.  Column lists are random
   (repeats allowed) or injective through the join pairs (every right
   column a pair equates to a left one is dropped), base relations stand
   on either side so the index paths run, and operands may be empty. *)
let gen_project_join sub arity =
  let open QCheck.Gen in
  int_range 1 3 >>= fun a1 ->
  int_range 1 3 >>= fun a2 ->
  list_size (int_range 0 2) (pair (int_range 0 (a1 - 1)) (int_range 0 (a2 - 1))) >>= fun pairs ->
  let side a =
    frequency
      [ (2, sub a); (2, return (Relalg.Rel (rel_of_arity a)));
        (1, return (Relalg.Lit (Relation.empty ~arity:a))) ]
  in
  let random_cols = list_repeat arity (int_range 0 (a1 + a2 - 1)) in
  let kept = join_kept a1 a2 pairs in
  let cols =
    if arity = 0 || List.length kept > arity then random_cols
    else
      frequency
        [ (1, random_cols);
          ( 2,
            shuffle_l kept >>= fun kept ->
            map (fun pad -> kept @ pad)
              (list_repeat (arity - List.length kept) (oneofl kept)) ) ]
  in
  map3
    (fun cols p q -> Relalg.Project (cols, Relalg.Join (pairs, p, q)))
    cols (side a1) (side a2)

let rec gen_plan fuel arity =
  let open QCheck.Gen in
  let base =
    let lit = map (fun r -> Relalg.Lit r) (gen_relation arity) in
    match arity with
    | 1 -> oneof [ return (Relalg.Rel "A"); lit ]
    | 2 -> oneof [ return (Relalg.Rel "B"); lit ]
    | 3 -> oneof [ return (Relalg.Rel "C"); lit ]
    | _ -> lit
  in
  if fuel = 0 then base
  else
    let sub = gen_plan (fuel - 1) in
    let select =
      gen_cond 2 arity >>= fun c -> map (fun p -> Relalg.Select (c, p)) (sub arity)
    in
    let project =
      int_range 0 2 >>= fun extra ->
      let inner = arity + extra in
      if inner = 0 then map (fun p -> Relalg.Project ([], p)) (sub 0)
      else
        list_repeat arity (int_range 0 (inner - 1)) >>= fun cols ->
        map (fun p -> Relalg.Project (cols, p)) (sub inner)
    in
    let product =
      int_range 0 arity >>= fun a1 ->
      map2 (fun p q -> Relalg.Product (p, q)) (sub a1) (sub (arity - a1))
    in
    let join =
      int_range 0 arity >>= fun a1 ->
      let a2 = arity - a1 in
      (if a1 = 0 || a2 = 0 then return []
       else
         list_size (int_range 0 2)
           (pair (int_range 0 (a1 - 1)) (int_range 0 (a2 - 1))))
      >>= fun pairs -> map2 (fun p q -> Relalg.Join (pairs, p, q)) (sub a1) (sub a2)
    in
    let union = map2 (fun p q -> Relalg.Union (p, q)) (sub arity) (sub arity) in
    let diff = map2 (fun p q -> Relalg.Diff (p, q)) (sub arity) (sub arity) in
    let indexed = if arity = 0 || arity > 3 then base else gen_indexed sub arity in
    frequency
      [ (2, base); (3, select); (2, project); (2, product); (2, join); (2, union);
        (2, diff); (3, indexed); (3, gen_project_join sub arity) ]

let gen_scenario =
  QCheck.Gen.(
    int_range 0 3 >>= fun arity ->
    int_range 0 3 >>= fun fuel -> pair (gen_plan fuel arity) gen_state)

let print_scenario (plan, _state) = Format.asprintf "%a" Relalg.pp plan

(* Domain predicates reach the engine through a per-row callback;
   interpret "<" over ints so random plans can exercise that path too. *)
let gen_dp_cond arity =
  if arity = 0 then QCheck.Gen.return None
  else
    QCheck.Gen.(
      map2
        (fun a b -> Some (Relalg.Domain_pred ("<", [ a; b ])))
        (gen_arg arity) (gen_arg arity))

let domain_pred name vals =
  match (name, vals) with
  | "<", [ a; b ] -> Value.compare a b < 0
  | _ -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Naive oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* Each operator exactly as relalg.mli defines it, over plain tuple
   lists: [Join] is [Select] over [Product], [Project] and the set
   operations dedup.  Returns the answer and [cost], the sum over the
   plan's nodes of 1 + |node| — what [Relalg.eval] charges the budget. *)
let oracle ?(domain_pred = domain_pred) ~state plan =
  let module R = Relalg in
  let cost = ref 0 in
  let dedup = List.sort_uniq (List.compare Value.compare) in
  let mem t ts = List.exists (List.equal Value.equal t) ts in
  let arg t = function R.Col i -> List.nth t i | R.Const v -> v in
  let rec holds t = function
    | R.Eq (a, b) -> Value.equal (arg t a) (arg t b)
    | R.Domain_pred (p, args) -> domain_pred p (List.map (arg t) args)
    | R.Not c -> not (holds t c)
    | R.And_c (c, d) -> holds t c && holds t d
    | R.Or_c (c, d) -> holds t c || holds t d
  in
  let product ts us = List.concat_map (fun t -> List.map (fun u -> t @ u) us) ts in
  let rec go node =
    let arity, ts =
      match node with
      | R.Rel name ->
        let r = State.relation state name in
        (Relation.arity r, Relation.tuples r)
      | R.Lit r -> (Relation.arity r, Relation.tuples r)
      | R.Select (c, p) ->
        let a, ts = go p in
        (a, List.filter (fun t -> holds t c) ts)
      | R.Project (cols, p) ->
        let _, ts = go p in
        (List.length cols, dedup (List.map (fun t -> List.map (List.nth t) cols) ts))
      | R.Product (p, q) ->
        let (a, ts), (b, us) = (go p, go q) in
        (a + b, product ts us)
      | R.Join (pairs, p, q) ->
        let (a, ts), (b, us) = (go p, go q) in
        let on t = List.for_all (fun (i, j) -> holds t (R.Eq (R.Col i, R.Col (a + j)))) pairs in
        (a + b, List.filter on (product ts us))
      | R.Union (p, q) ->
        let (a, ts), (_, us) = (go p, go q) in
        (a, dedup (ts @ us))
      | R.Diff (p, q) ->
        let (a, ts), (_, us) = (go p, go q) in
        (a, List.filter (fun t -> not (mem t us)) ts)
    in
    cost := !cost + 1 + List.length ts;
    (arity, ts)
  in
  let arity, ts = go plan in
  (Relation.make ~arity ts, !cost)

let oracle_answer ?domain_pred ~state plan = fst (oracle ?domain_pred ~state plan)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_oracle_agrees =
  QCheck.Test.make ~name:"answers equal the naive oracle's" ~count:600
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun (plan, state) -> Relation.equal (oracle_answer ~state plan) (Relalg.eval ~state plan))

let prop_oracle_agrees_optimized =
  QCheck.Test.make ~name:"oracle agrees on optimized plans" ~count:400
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun (plan, state) ->
      let stats = Optimizer.Stats.of_state state in
      let opt = Optimizer.optimize_for ~stats ~schema plan in
      Relation.equal (oracle_answer ~state plan) (Relalg.eval ~state opt))

let prop_oracle_agrees_domain_pred =
  QCheck.Test.make ~name:"oracle agrees on domain predicates" ~count:400
    (QCheck.make
       ~print:(fun ((plan, _), _) -> Format.asprintf "%a" Relalg.pp plan)
       QCheck.Gen.(
         gen_scenario >>= fun ((plan, _) as sc) ->
         let arity =
           match Relalg.arity_check ~schema plan with Ok a -> a | Error _ -> 0
         in
         map (fun c -> (sc, c)) (gen_dp_cond arity)))
    (fun ((plan, state), cond) ->
      let plan =
        match cond with None -> plan | Some c -> Relalg.Select (c, plan)
      in
      Relation.equal
        (oracle_answer ~domain_pred ~state plan)
        (Relalg.eval ~state ~domain_pred plan))

(* Budget.charge trips once spent exceeds the fuel, and every node
   charges 1 + |node|: so the engine answers (with the oracle's answer)
   iff the oracle's cost fits the fuel, and trips Fuel_exhausted
   otherwise. *)
let print_fuel_scenario ((plan, _state), fuel) =
  Format.asprintf "fuel=%d %a" fuel Relalg.pp plan

let prop_fuel_verdict_exact =
  QCheck.Test.make ~name:"fuel verdict matches oracle cost" ~count:600
    (QCheck.make ~print:print_fuel_scenario
       QCheck.Gen.(pair gen_scenario (int_range 0 60)))
    (fun ((plan, state), fuel) ->
      let expected, cost = oracle ~state plan in
      let budget = Budget.make ~fuel () in
      match Budget.guard budget (fun () -> Relalg.eval ~state plan) with
      | Ok r -> cost <= fuel && Relation.equal r expected
      | Error Budget.Fuel_exhausted -> cost > fuel
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Deterministic columnar kernel checks                                *)
(* ------------------------------------------------------------------ *)

let r2 rows = Relation.make ~arity:2 rows

let test_roundtrip () =
  let dict = Columnar.Dict.create () in
  let r =
    r2 [ [ vi 1; vi 2 ]; [ vi 3; vi 4 ]; [ vi 1; vi 2 ]; [ vi 0; vi 9 ] ]
  in
  let b = Columnar.of_relation dict r in
  Alcotest.(check bool)
    "of_relation/to_relation is the identity on sets" true
    (Relation.equal r (Columnar.to_relation dict b))

let test_projection_dedups () =
  (* projecting away the distinguishing column must collapse duplicates *)
  let dict = Columnar.Dict.create () in
  let r = r2 [ [ vi 1; vi 2 ]; [ vi 1; vi 3 ]; [ vi 2; vi 2 ] ] in
  let b = Columnar.of_relation dict r in
  let p = Columnar.to_relation dict (Columnar.project [| 0 |] b) in
  Alcotest.(check int) "two distinct first components" 2 (Relation.cardinal p)

let test_permutation_projection () =
  (* a column permutation is injective on rows: nothing may collapse *)
  let dict = Columnar.Dict.create () in
  let r = r2 [ [ vi 1; vi 2 ]; [ vi 2; vi 1 ]; [ vi 1; vi 1 ] ] in
  let b = Columnar.of_relation dict r in
  let p = Columnar.to_relation dict (Columnar.project [| 1; 0 |] b) in
  Alcotest.(check int) "swap keeps all rows" 3 (Relation.cardinal p);
  Alcotest.(check bool) "swap swaps" true
    (Relation.equal p (r2 [ [ vi 2; vi 1 ]; [ vi 1; vi 2 ]; [ vi 1; vi 1 ] ]))

(* same rows, same physical order, same sortedness *)
let same_batch (x : Columnar.t) (y : Columnar.t) =
  let x = Columnar.dense x and y = Columnar.dense y in
  x.nrows = y.nrows && x.sorted = y.sorted && x.arity = y.arity
  && Array.for_all2 (fun cx cy -> Array.sub cx 0 x.nrows = Array.sub cy 0 y.nrows) x.cols y.cols

(* The probe kernels against the scan and hash kernels they replace, on
   one base batch: same rows, same physical order, same sortedness.
   Probe-side values outside the base dictionary land in an overlay, as
   plan literals do. *)
let gen_kernel_case =
  QCheck.Gen.(
    let v = map vi (int_range 0 6) in
    quad
      (list_size (int_range 0 12) (list_repeat 2 v))
      ( int_range 1 2 >>= fun a ->
        map (fun rows -> (a, rows)) (list_size (int_range 0 6) (list_repeat a v)) )
      (list_size (int_range 1 2) (pair (int_range 0 1) (int_range 0 1)))
      (int_range 0 7))

let prop_probe_kernels =
  QCheck.Test.make ~name:"index probes match the scan and hash kernels" ~count:500
    (QCheck.make gen_kernel_case)
    (fun (brows, (qa, qrows), pairs, code) ->
      let rb = Relation.make ~arity:2 brows in
      let rq = Relation.make ~arity:qa qrows in
      let base = Columnar.Dict.of_sorted_values (List.sort_uniq Value.compare (List.concat brows)) in
      let b = Columnar.of_relation base rb in
      let dict = Columnar.Dict.overlay base in
      let q = Columnar.of_relation dict rq in
      let codes = Columnar.Dict.size base in
      let ix = Array.init 2 (fun c -> Columnar.build_index ~codes b c) in
      let rpairs = List.map (fun (i, j) -> (i mod qa, j)) pairs in
      let lpairs = List.map (fun (i, j) -> (j, i mod qa)) pairs in
      let agrees probe scan =
        match probe with None -> true | Some m -> same_batch (Columnar.gather m) scan
      in
      List.for_all
        (fun c ->
          same_batch (Columnar.select_code ix.(c) b code)
            (Columnar.filter (fun i -> b.cols.(c).(i) = code) b))
        [ 0; 1 ]
      && agrees
           (Columnar.join_index_right rpairs q b ix.(snd (List.hd rpairs)))
           (Columnar.gather (Columnar.join rpairs q b))
      && agrees
           (Columnar.join_index_left lpairs b ix.(fst (List.hd lpairs)) q)
           (Columnar.gather (Columnar.join lpairs b q)))

(* A batch's [sorted] flag holds of its rows: when set, the logical
   rows are strictly increasing in code order. *)
let sorted_holds (b : Columnar.t) =
  let b = Columnar.dense b in
  let row i = Array.to_list (Array.map (fun col -> col.(i)) b.cols) in
  let ascends i = compare (row (i - 1)) (row i) < 0 in
  (not b.sorted) || List.for_all ascends (List.init (max 0 (b.nrows - 1)) succ)

(* an operand batch: [r] encoded, or reversed by a column permutation,
   which leaves it unsorted *)
let operand dict a r flip =
  let b = Columnar.of_relation dict r in
  if flip && a > 1 then Columnar.project (Array.init a (fun c -> a - 1 - c)) b else b

(* The gathered path against the plain one: projecting the join's
   matches onto [cols] gives the same relation as [project cols] of the
   full join, with as many rows, and both batches' [sorted] flags hold
   — on the hash path and on both index paths, over sorted and unsorted
   operands, with random and join-injective column lists. *)
let gen_gather_case =
  QCheck.Gen.(
    let v = map vi (int_range 0 5) in
    let operand =
      int_range 1 3 >>= fun a ->
      map2 (fun rows flip -> (a, rows, flip)) (list_size (int_range 0 10) (list_repeat a v)) bool
    in
    pair operand (pair operand bool) >>= fun ((a1, r1, f1), ((a2, r2, f2), injective)) ->
    list_size (int_range 0 2) (pair (int_range 0 (a1 - 1)) (int_range 0 (a2 - 1)))
    >>= fun pairs ->
    (if injective then
       shuffle_l (join_kept a1 a2 pairs) >>= fun kept ->
       map (fun pad -> kept @ pad) (list_size (int_range 0 2) (oneofl kept))
     else list_size (int_range 0 4) (int_range 0 (a1 + a2 - 1)))
    >>= fun cols -> return ((a1, r1, f1), (a2, r2, f2), pairs, Array.of_list cols))

let print_gather_case ((a1, r1, _), (a2, r2, _), pairs, cols) =
  let rel a rows = Format.asprintf "%a" Relation.pp (Relation.make ~arity:a rows) in
  Printf.sprintf "%s |x|[%s] %s, cols [%s]" (rel a1 r1)
    (String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs))
    (rel a2 r2)
    (String.concat "," (Array.to_list (Array.map string_of_int cols)))

let prop_gather_project =
  QCheck.Test.make ~name:"gathered projection equals project of the join" ~count:600
    (QCheck.make ~print:print_gather_case gen_gather_case)
    (fun ((a1, r1, f1), (a2, r2, f2), pairs, cols) ->
      let r1 = Relation.make ~arity:a1 r1 and r2 = Relation.make ~arity:a2 r2 in
      let dict =
        Columnar.Dict.of_sorted_values
          (List.sort_uniq Value.compare (Relation.values r1 @ Relation.values r2))
      in
      let p = operand dict a1 r1 f1 and q = operand dict a2 r2 f2 in
      (* a declined probe ([None]) has nothing to compare *)
      let check p q = function
        | None -> true
        | Some m ->
          let gathered = Columnar.gather_project cols m in
          let plain = Columnar.project cols (Columnar.gather (Columnar.join pairs p q)) in
          gathered.nrows = plain.nrows && sorted_holds gathered && sorted_holds plain
          && Relation.equal
               (Columnar.to_relation dict gathered)
               (Columnar.to_relation dict plain)
      in
      (* the index paths take a base operand: dense, as encoded *)
      let codes = Columnar.Dict.size dict in
      let bp = Columnar.of_relation dict r1 and bq = Columnar.of_relation dict r2 in
      check p q (Some (Columnar.join pairs p q))
      &&
      match pairs with
      | [] -> true
      | (i, j) :: _ ->
        check p bq (Columnar.join_index_right pairs p bq (Columnar.build_index ~codes bq j))
        && check bp q (Columnar.join_index_left pairs bp (Columnar.build_index ~codes bp i) q))

(* [to_relation] trusts the [sorted] flag to skip its sort, so no
   operator may set it on rows that are not strictly increasing: every
   batch the kernels return, over sorted and permuted operands, with a
   selection vector or without, is checked. *)
let prop_sorted_flags =
  QCheck.Test.make ~name:"sorted flags hold of the rows" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple gen_gather_case
           (pair (list_size (int_range 0 10) (list_repeat 3 (map vi (int_range 0 5)))) bool)
           (int_range 0 7)))
    (fun (((a1, r1, f1), (a2, r2, f2), pairs, cols), (r3, f3), code) ->
      let r1 = Relation.make ~arity:a1 r1 and r2 = Relation.make ~arity:a2 r2 in
      let r3 = Relation.make ~arity:a1 (List.map (List.filteri (fun c _ -> c < a1)) r3) in
      let dict =
        Columnar.Dict.of_sorted_values
          (List.sort_uniq Value.compare (List.concat_map Relation.values [ r1; r2; r3 ]))
      in
      let p = operand dict a1 r1 f1 and q = operand dict a2 r2 f2 in
      let p' = operand dict a1 r3 f3 in
      let odd = Columnar.filter (fun i -> i mod 2 = 1) p in
      let codes = Columnar.Dict.size dict in
      let bp = Columnar.of_relation dict r1 and bq = Columnar.of_relation dict r2 in
      let matches =
        Some (Columnar.join pairs p q)
        ::
        (match pairs with
        | [] -> []
        | (i, j) :: _ ->
          [ Columnar.join_index_right pairs p bq (Columnar.build_index ~codes bq j);
            Columnar.join_index_left pairs bp (Columnar.build_index ~codes bp i) q ])
      in
      List.for_all sorted_holds
        ([ odd; Columnar.project (Array.map (fun c -> c mod a1) cols) p;
           Columnar.project [| 0 |] odd; Columnar.union p p'; Columnar.union odd p;
           Columnar.diff p p'; Columnar.diff odd p';
           Columnar.select_code (Columnar.build_index ~codes bp 0) bp code ]
        @ List.concat_map
            (function
              | None -> [] | Some m -> [ Columnar.gather m; Columnar.gather_project cols m ])
            matches))

(* Materialization: [to_relation] of a duplicate-free batch in shuffled
   physical order equals [Relation.of_rows] of its decoded rows, and a
   projection that collapses duplicates keeps exactly the distinct rows
   of [Relation.of_rows], sorted.  Both batches come from one keyed
   relation of rows [(i, r_i)], whose physical order is the draw order:
   moving the key behind the row is a permutation, so the rows stay
   shuffled and unsorted; dropping it dedups the drawn rows, about half
   of which repeat an earlier one.  Sizes straddle the radix sort's
   cutoff (4,096 packed keys) at arities 1-3; arity 8 over codes 128-255
   packs past a word (8 bits a column), so the code-comparing sort runs;
   and a plan literal with values below and above the state's fills the
   evaluation's overlay out of order, so the answer takes the value
   sort.  The rows are drawn from a seeded stream, not by QCheck:
   thousands of them would drown the shrinker. *)
type materialization = Packed of int * int | Wide of int | Overlay of int

let gen_materialization =
  QCheck.Gen.(
    pair
      (frequency
         [ ( 4,
             map2
               (fun a n -> Packed (a, n))
               (int_range 1 3)
               (frequency [ (2, int_range 0 60); (1, int_range 3500 4095); (2, int_range 4096 6000) ])
           );
           (1, map (fun n -> Wide n) (int_range 0 300));
           (1, map (fun n -> Overlay n) (int_range 0 5000)) ])
      int)

let print_materialization (case, seed) =
  (match case with
  | Packed (a, n) -> Printf.sprintf "packed arity %d, %d rows" a n
  | Wide n -> Printf.sprintf "wide, %d rows" n
  | Overlay n -> Printf.sprintf "overlay literal, %d rows" n)
  ^ Printf.sprintf ", seed %d" seed

(* [n] rows of [arity] values in [lo, lo + span), in draw order; each
   repeats an earlier row with probability 1/2 *)
let random_rows rng ~arity ~lo ~span n =
  let drawn = Array.make n [] in
  for i = 0 to n - 1 do
    drawn.(i) <-
      (if i > 0 && Random.State.bool rng then drawn.(Random.State.int rng i)
       else List.init arity (fun _ -> vi (lo + Random.State.int rng span)))
  done;
  Array.to_list drawn

let prop_materialization =
  QCheck.Test.make ~name:"to_relation equals of_rows of the decoded rows" ~count:40
    (QCheck.make ~print:print_materialization gen_materialization)
    (fun (case, seed) ->
      let rng = Random.State.make [| seed |] in
      let decoded arity ~lo ~span n =
        let rows = random_rows rng ~arity ~lo ~span n in
        let dict = Columnar.Dict.of_sorted_values (List.init (max (lo + span) n) vi) in
        let keyed =
          Columnar.of_relation dict
            (Relation.make ~arity:(arity + 1) (List.mapi (fun i row -> vi i :: row) rows))
        in
        let key_last = Array.init (arity + 1) (fun c -> (c + 1) mod (arity + 1)) in
        let shuffled = Columnar.dense (Columnar.project key_last keyed) in
        let cells i = Array.map (fun col -> Columnar.Dict.decode dict col.(i)) shuffled.cols in
        let deduped = Columnar.project (Array.init arity succ) keyed in
        let distinct =
          Relation.of_rows ~arity
            (Array.of_list (List.map (fun r -> Row.of_array (Array.of_list r)) rows))
        in
        shuffled.Columnar.nrows = n
        && (n < 2 || not shuffled.Columnar.sorted)
        && Relation.equal
             (Columnar.to_relation dict shuffled)
             (Relation.of_rows ~arity:(arity + 1)
                (Array.init n (fun i -> Row.of_array (cells i))))
        && deduped.Columnar.sorted && sorted_holds deduped
        && deduped.Columnar.nrows = Relation.cardinal distinct
        && Relation.equal (Columnar.to_relation dict deduped) distinct
      in
      match case with
      | Packed (arity, n) ->
        decoded arity ~lo:0 ~span:(match arity with 1 -> (2 * n) + 1 | 2 -> 120 | _ -> 30) n
      | Wide n -> decoded 8 ~lo:128 ~span:128 n
      | Overlay n ->
        let b = random_rows rng ~arity:2 ~lo:0 ~span:50 n in
        let lit = Relation.make ~arity:2 (random_rows rng ~arity:2 ~lo:(-25) ~span:100 n) in
        let state = State.make ~schema [ ("B", Relation.make ~arity:2 b) ] in
        Relation.equal
          (Relation.make ~arity:2 (b @ Relation.tuples lit))
          (Relalg.eval ~state (Relalg.Union (Relalg.Rel "B", Relalg.Lit lit))))

(* Indexes build lazily on the shared state image, so domains that
   evaluate anchored plans on one fresh state race to build them; every
   domain must still get exactly the answers of a sequential run. *)
let test_concurrent_index_builds () =
  let b =
    Relation.make ~arity:2 (List.init 400 (fun i -> [ vi (i mod 37); vi (i * 7 mod 53) ]))
  in
  let fresh () = State.make ~schema [ ("B", b) ] in
  let plans =
    Array.of_list
      (List.concat_map
         (fun k ->
           let v = Relalg.Const (vi k) in
           [ Relalg.Select (Relalg.Eq (Relalg.Col 0, v), Relalg.Rel "B");
             Relalg.Select (Relalg.Eq (v, Relalg.Col 1), Relalg.Rel "B");
             Relalg.Join
               ([ (1, 0) ], Relalg.Select (Relalg.Eq (Relalg.Col 0, v), Relalg.Rel "B"),
                 Relalg.Rel "B");
             Relalg.Join ([ (1, 0) ], Relalg.Rel "B", Relalg.Lit (Relation.make ~arity:1 [ [ vi k ] ]))
           ])
         (List.init 40 Fun.id))
  in
  let n = Array.length plans in
  let expected = Array.map (fun p -> Relalg.eval ~state:(fresh ()) p) plans in
  for _round = 1 to 4 do
    let state = fresh () in
    let seats = 4 in
    let ready = Atomic.make 0 in
    let run d () =
      Atomic.incr ready;
      while Atomic.get ready < seats do
        Domain.cpu_relax ()
      done;
      (* each seat walks the plans from its own starting point *)
      Array.init n (fun k ->
          let i = (k + (d * n / seats)) mod n in
          (i, Relalg.eval ~state plans.(i)))
    in
    List.iter
      (fun answers ->
        Array.iter
          (fun (i, r) ->
            Alcotest.(check bool)
              (Format.asprintf "plan %a" Relalg.pp plans.(i))
              true (Relation.equal expected.(i) r))
          answers)
      (List.map Domain.join (List.init seats (fun d -> Domain.spawn (run d))))
  done

let () =
  Alcotest.run "columnar"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_oracle_agrees;
          QCheck_alcotest.to_alcotest prop_oracle_agrees_optimized;
          QCheck_alcotest.to_alcotest prop_oracle_agrees_domain_pred;
          QCheck_alcotest.to_alcotest prop_fuel_verdict_exact ] );
      ( "kernels",
        [ QCheck_alcotest.to_alcotest prop_probe_kernels;
          QCheck_alcotest.to_alcotest prop_gather_project;
          QCheck_alcotest.to_alcotest prop_sorted_flags;
          QCheck_alcotest.to_alcotest prop_materialization;
          Alcotest.test_case "relation round-trip" `Quick test_roundtrip;
          Alcotest.test_case "projection deduplicates" `Quick test_projection_dedups;
          Alcotest.test_case "permutation projection keeps rows" `Quick
            test_permutation_projection;
          Alcotest.test_case "racing domains build indexes consistently" `Quick
            test_concurrent_index_builds ] ) ]
