(* Tests for Fq_eval: the state-to-formula translation and the paper's
   Section 1.1 enumerate-and-decide query evaluator, exercised over the
   pure-equality domain (the intro's father/son database) and N_<. *)

open Fq_db
module Formula = Fq_logic.Formula
module Enumerate = Fq_eval.Enumerate
module Translate = Fq_eval.Translate

let parse = Fq_logic.Parser.formula_exn
let s = Value.str
let v = Value.int
let rel = Alcotest.testable Relation.pp Relation.equal

(* the paper's running example: one binary father/son relation *)
let schema = Schema.make [ ("F", 2) ]

let family =
  Relation.make ~arity:2
    [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
      [ s "enoch"; s "irad" ] ]

let state = State.make ~schema [ ("F", family) ]
let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)

(* ---------------------------- translation -------------------------- *)

let test_translate () =
  let f = parse "F(x, y)" in
  match Translate.formula ~domain:eq_domain ~state f with
  | Error e -> Alcotest.fail e
  | Ok f' ->
    (* the translated formula is pure: no database predicate left *)
    Alcotest.(check (list (pair string int))) "no predicates" [] (Formula.preds f');
    Alcotest.(check int) "disjunction of four tuples" 4
      (List.length (Formula.disjuncts f'))

let test_translate_constants () =
  let sch = Schema.make ~constants:[ "c" ] [ ("R", 1) ] in
  let st =
    State.make ~schema:sch ~constants:[ ("c", s "w") ]
      [ ("R", Relation.make ~arity:1 [ [ s "a" ] ]) ]
  in
  let f = parse "R(x) /\\ x = @c" in
  (match Translate.formula ~domain:eq_domain ~state:st f with
  | Error e -> Alcotest.fail e
  | Ok f' ->
    Alcotest.(check bool) "scheme constant replaced" false
      (List.exists Fq_logic.Term.is_scheme_const (Formula.consts f')));
  (* uninterpreted scheme constant *)
  let f2 = parse "x = @missing" in
  Alcotest.(check bool) "missing constant is an error" true
    (Result.is_error (Translate.formula ~domain:eq_domain ~state:st f2))

let test_active_domain () =
  let f = parse "F(x, y) \\/ x = \"seth\"" in
  let adom = Translate.active_domain ~domain:eq_domain ~state f in
  Alcotest.(check int) "state values plus query constant" 6 (List.length adom);
  Alcotest.(check bool) "seth included" true (List.exists (Value.equal (s "seth")) adom)

(* --------------------------- tuple streams ------------------------- *)

let test_tuple_enumeration () =
  let enum () = List.to_seq [ v 0; v 1; v 2; v 3; v 4 ] in
  let pairs = List.of_seq (Seq.take 9 (Enumerate.tuples ~arity:2 enum)) in
  Alcotest.(check int) "nine pairs over first three elements" 9 (List.length pairs);
  Alcotest.(check bool) "fair: (2,2) appears among first 9" true
    (List.exists (fun t -> t = [ v 2; v 2 ]) pairs);
  Alcotest.(check int) "no duplicates" 9 (List.length (List.sort_uniq compare pairs));
  let empties = List.of_seq (Enumerate.tuples ~arity:0 enum) in
  Alcotest.(check int) "single empty tuple" 1 (List.length empties)

(* ------------------------- the 1.1 algorithm ----------------------- *)

let run_finite f =
  match
    Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 30_000)
      ~domain:eq_domain ~state (parse f)
  with
  | Ok (Enumerate.Complete r) -> r
  | Ok (Enumerate.Partial _) -> Alcotest.failf "%s: out of fuel" f
  | Error e -> Alcotest.failf "%s: %s" f e

let test_intro_queries () =
  (* M(x): men with at least two sons *)
  let m = run_finite "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  Alcotest.check rel "M(x) = {adam}" (Relation.make ~arity:1 [ [ s "adam" ] ]) m;
  (* G(x,z): grandfathers *)
  let g = run_finite "exists y. F(x, y) /\\ F(y, z)" in
  Alcotest.check rel "G = {(adam,enoch), (cain,irad)}"
    (Relation.make ~arity:2 [ [ s "adam"; s "enoch" ]; [ s "cain"; s "irad" ] ])
    g

let test_sentences () =
  let yes = run_finite "exists x y. F(x, y)" in
  Alcotest.(check int) "true sentence: nonempty nullary" 1 (Relation.cardinal yes);
  let no = run_finite "exists x. F(x, x)" in
  Alcotest.(check int) "false sentence: empty nullary" 0 (Relation.cardinal no)

let test_empty_answer () =
  let r = run_finite "F(x, x)" in
  Alcotest.(check bool) "no self-fathering" true (Relation.is_empty r)

let test_unsafe_runs_out_of_fuel () =
  (* ¬F(x,y) has an infinite answer: the algorithm must not terminate
     with a Complete verdict *)
  match
    Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 300)
      ~domain:eq_domain ~state (parse "~F(x, y)")
  with
  | Ok (Enumerate.Partial { tuples = partial; _ }) ->
    Alcotest.(check bool) "found some tuples" true (Relation.cardinal partial > 0)
  | Ok (Enumerate.Complete _) -> Alcotest.fail "unsafe query reported finite"
  | Error e -> Alcotest.fail e

let test_mixed_unsafe_union () =
  (* the intro's M(x) ∨ G(x,z): infinite because M(x) leaves z loose
     (adam has two sons) *)
  let f = "(exists y w. y != w /\\ F(x, y) /\\ F(x, w)) \\/ (exists y. F(x, y) /\\ F(y, z))" in
  match
    Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 300)
      ~domain:eq_domain ~state (parse f)
  with
  | Ok (Enumerate.Partial _) -> ()
  | Ok (Enumerate.Complete r) ->
    Alcotest.failf "reported finite: %s" (Format.asprintf "%a" Relation.pp r)
  | Error e -> Alcotest.fail e

let test_decide_cache () =
  let module DC = Fq_domain.Decide_cache in
  let f = parse "exists y. F(x, y) /\\ F(y, z)" in
  let uncached =
    match
      Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 10_000)
        ~domain:eq_domain ~state f
    with
    | Ok (Enumerate.Complete r) -> r
    | _ -> Alcotest.fail "uncached run not finite"
  in
  let cache = DC.create () in
  let cached_run () =
    match
      Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 10_000)
        ~domain:(DC.domain cache eq_domain) ~state f
    with
    | Ok (Enumerate.Complete r) -> r
    | _ -> Alcotest.fail "cached run not finite"
  in
  Alcotest.check rel "cached answer = uncached answer" uncached (cached_run ());
  let cold = DC.stats cache in
  Alcotest.check rel "warm rerun unchanged" uncached (cached_run ());
  let warm = DC.stats cache in
  Alcotest.(check bool) "rerun hits the cache" true (warm.DC.hits > cold.DC.hits);
  Alcotest.(check int) "rerun adds no entries" cold.DC.entries warm.DC.entries

(* the LRU bound: decisions on distinct sentences evict the least
   recently used entries, and a lookup refreshes recency *)
let test_decide_cache_lru () =
  let module DC = Fq_domain.Decide_cache in
  let sentence i = parse (Printf.sprintf "exists x. x = \"v%d\"" i) in
  let cache = DC.create () in
  let decide i =
    match DC.decide cache eq_domain (sentence i) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* fill the 4,096 entries, sentence 0 least recently used *)
  for i = 0 to 4095 do
    DC.restore cache (Formula.alpha_normalize (sentence i)) (Ok true)
  done;
  let s = DC.stats cache in
  Alcotest.(check int) "full, none evicted" 0 s.DC.evictions;
  Alcotest.(check int) "filled to capacity" 4096 s.DC.entries;
  decide 4096;
  let s = DC.stats cache in
  Alcotest.(check int) "one more entry evicts the LRU" 1 s.DC.evictions;
  Alcotest.(check int) "entries stay at capacity" 4096 s.DC.entries;
  (* 0 is gone and 1 is the LRU; touching 1 makes 2 the LRU, so
     deciding 0 again must evict 2, not 1 *)
  decide 1;
  let hits_before = (DC.stats cache).DC.hits in
  decide 0;
  decide 1;
  let s = DC.stats cache in
  Alcotest.(check bool) "touched entry survived the eviction" true (s.DC.hits > hits_before);
  Alcotest.(check int) "re-inserting 0 evicted the untouched 2" 2 s.DC.evictions;
  let misses_before = s.DC.misses in
  decide 2;
  Alcotest.(check int) "the evicted 2 misses" (misses_before + 1) (DC.stats cache).DC.misses

let test_certified_complete () =
  let f = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  let answer = Relation.make ~arity:1 [ [ s "adam" ] ] in
  (match Enumerate.certified_complete ~domain:eq_domain ~state f answer with
  | Ok b -> Alcotest.(check bool) "complete answer certified" true b
  | Error e -> Alcotest.fail e);
  match Enumerate.certified_complete ~domain:eq_domain ~state f (Relation.empty ~arity:1) with
  | Ok b -> Alcotest.(check bool) "incomplete answer rejected" false b
  | Error e -> Alcotest.fail e

(* ------------------------------ over N_< --------------------------- *)

let nat : Fq_domain.Domain.t = (module Fq_domain.Nat_order)

let nat_schema = Schema.make [ ("R", 1) ]

let nat_state =
  State.make ~schema:nat_schema [ ("R", Relation.make ~arity:1 [ [ v 2 ]; [ v 5 ] ]) ]

let test_nat_order_queries () =
  (* elements below some R element: finite *)
  let f = parse "exists y. R(y) /\\ x < y" in
  (match
    Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 1_000)
      ~domain:nat ~state:nat_state f
   with
  | Ok (Enumerate.Complete r) ->
    Alcotest.(check int) "x < 5: five values" 5 (Relation.cardinal r)
  | Ok (Enumerate.Partial _) -> Alcotest.fail "out of fuel"
  | Error e -> Alcotest.fail e);
  (* Fact 2.1's query: the least element above every active-domain
     element — finite (a single value) yet not domain-independent *)
  let lub =
    parse "(forall y. R(y) -> y < x) /\\ (forall z. (forall y. R(y) -> y < z) -> x <= z)"
  in
  match
    Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 1_000)
      ~domain:nat ~state:nat_state lub
  with
  | Ok (Enumerate.Complete r) ->
    Alcotest.check rel "successor of the max" (Relation.make ~arity:1 [ [ v 6 ] ]) r
  | Ok (Enumerate.Partial _) -> Alcotest.fail "out of fuel"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "fq_eval"
    [ ( "translate",
        [ Alcotest.test_case "relations expand" `Quick test_translate;
          Alcotest.test_case "scheme constants" `Quick test_translate_constants;
          Alcotest.test_case "active domain" `Quick test_active_domain ] );
      ("tuples", [ Alcotest.test_case "fair enumeration" `Quick test_tuple_enumeration ]);
      ( "enumerate",
        [ Alcotest.test_case "intro queries" `Quick test_intro_queries;
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "empty answer" `Quick test_empty_answer;
          Alcotest.test_case "unsafe out of fuel" `Quick test_unsafe_runs_out_of_fuel;
          Alcotest.test_case "unsafe union (intro)" `Quick test_mixed_unsafe_union;
          Alcotest.test_case "decide cache" `Quick test_decide_cache;
          Alcotest.test_case "decide cache LRU" `Quick test_decide_cache_lru;
          Alcotest.test_case "certified completeness" `Quick test_certified_complete ] );
      ("nat_order", [ Alcotest.test_case "queries over N_<" `Quick test_nat_order_queries ]) ]
