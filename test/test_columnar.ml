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
    frequency
      [ (2, base); (3, select); (2, project); (2, product); (2, join); (2, union);
        (2, diff) ]

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
      match Budget.guard budget (fun () -> Relalg.eval ~state ~budget plan) with
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

let () =
  Alcotest.run "columnar"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_oracle_agrees;
          QCheck_alcotest.to_alcotest prop_oracle_agrees_optimized;
          QCheck_alcotest.to_alcotest prop_oracle_agrees_domain_pred;
          QCheck_alcotest.to_alcotest prop_fuel_verdict_exact ] );
      ( "kernels",
        [ Alcotest.test_case "relation round-trip" `Quick test_roundtrip;
          Alcotest.test_case "projection deduplicates" `Quick test_projection_dedups;
          Alcotest.test_case "permutation projection keeps rows" `Quick
            test_permutation_projection ] ) ]
