(* Tests for Fq_safety: the safe-range syntax, the algebra compiler, the
   finitization operator (Thm 2.2), the extended active domain (Thms
   2.6/2.7), relative safety (Thm 2.5), formula enumeration, and the
   executable reductions of Theorems 3.1 and 3.3. *)

open Fq_db
open Fq_safety
module Safe_range = Fq_eval.Safe_range
module Algebra_translate = Fq_eval.Algebra_translate
module Formula = Fq_logic.Formula

let parse = Fq_logic.Parser.formula_exn
let s = Value.str
let v = Value.int
let rel = Alcotest.testable Relation.pp Relation.equal

let schema_assoc = [ ("F", 2); ("R", 1) ]
let schema = Schema.make schema_assoc

let family =
  Relation.make ~arity:2
    [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
      [ s "enoch"; s "irad" ] ]

let state = State.make ~schema [ ("F", family) ]
let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)
let nat : Fq_domain.Domain.t = (module Fq_domain.Nat_order)
let presburger : Fq_domain.Domain.t = (module Fq_domain.Presburger)
let succ_domain : Fq_domain.Domain.t = (module Fq_domain.Nat_succ)

(* ----------------------------- safe range -------------------------- *)

let check_sr name f expected =
  Alcotest.(check bool) name expected (Safe_range.is_safe_range ~schema:schema_assoc (parse f))

let test_safe_range_positive () =
  check_sr "atom" "F(x, y)" true;
  check_sr "the intro's M(x)" "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" true;
  check_sr "the intro's G(x,z)" "exists y. F(x, y) /\\ F(y, z)" true;
  check_sr "constant equality" "x = \"adam\"" true;
  check_sr "equality propagation" "F(x, y) /\\ y = z" true;
  check_sr "negation guarded" "F(x, y) /\\ ~F(y, x)" true;
  check_sr "forall rewritten" "R(x) /\\ (forall y. F(x, y) -> R(y))" true;
  check_sr "sentence" "exists x y. F(x, y)" true;
  check_sr "union same frees" "F(x, y) \\/ F(y, x)" true

let test_safe_range_negative () =
  check_sr "negated atom" "~F(x, y)" false;
  check_sr "loose variable" "F(x, x) /\\ y = y" false;
  check_sr "the intro's unsafe union" "(exists y w. y != w /\\ F(x, y) /\\ F(x, w)) \\/ (exists y. F(x, y) /\\ F(y, z))" false;
  check_sr "domain predicate alone" "x < y" false;
  check_sr "unrestricted quantifier" "exists y. F(x, x) \\/ F(y, y)" false;
  check_sr "variable equality alone" "x = y" false

(* --------------------------- algebra compile ----------------------- *)

let algebra f = Algebra_translate.run ~domain:eq_domain ~state (parse f)

let enum f =
  match
    Fq_eval.Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 30_000)
      ~domain:eq_domain ~state (parse f)
  with
  | Ok (Fq_eval.Enumerate.Complete r) -> r
  | Ok (Fq_eval.Enumerate.Partial _) -> Alcotest.failf "%s: out of fuel" f
  | Error e -> Alcotest.failf "%s: %s" f e

let test_algebra_matches_enumeration () =
  (* E2: on safe-range queries the algebra plan computes the same answer
     as the Section 1.1 enumerate-and-decide algorithm *)
  List.iter
    (fun f ->
      match algebra f with
      | Ok r -> Alcotest.check rel f (enum f) r
      | Error e -> Alcotest.failf "%s: %s" f e)
    [ "F(x, y)";
      "exists y z. y != z /\\ F(x, y) /\\ F(x, z)";
      "exists y. F(x, y) /\\ F(y, z)";
      "F(x, y) /\\ ~F(y, x)";
      "x = \"adam\"";
      "exists x y. F(x, y)";
      "F(x, y) \\/ F(y, x)";
      "exists y. F(x, y) /\\ (forall z. F(x, z) -> z = y)" (* exactly one son *) ]

let test_algebra_active_domain_semantics () =
  (* a non-domain-independent query: ~F(x,y) over the active domain is
     finite (adom² minus F), differing from the natural infinite answer *)
  match algebra "~F(x, y)" with
  | Ok r ->
    let adom = List.length (State.active_domain state) in
    Alcotest.(check int) "adom² - |F|" ((adom * adom) - Relation.cardinal family)
      (Relation.cardinal r)
  | Error e -> Alcotest.fail e

let test_algebra_rejects_functions () =
  match Algebra_translate.run ~domain:nat ~state:(State.make ~schema []) (parse "x + 1 < y") with
  | Ok _ -> Alcotest.fail "function term should be rejected"
  | Error _ -> ()

(* --------------------------- finitization -------------------------- *)

let nat_schema_assoc = [ ("R", 1) ]
let nat_schema = Schema.make nat_schema_assoc

let nat_state =
  State.make ~schema:nat_schema [ ("R", Relation.make ~arity:1 [ [ v 2 ]; [ v 5 ] ]) ]

let test_finitize_always_finite () =
  (* E4: the finitization of an unsafe formula is finite; check by asking
     Presburger whether the translated finitization implies a bound *)
  let unsafe = parse "~R(x)" in
  let fin = Finitization.finitize unsafe in
  Alcotest.(check bool) "recognized" true (Finitization.is_finitization fin);
  match
    Finitization.equivalence_in_state ~decide:Fq_domain.Presburger.decide
      ~domain:presburger ~state:nat_state fin
  with
  | Ok b -> Alcotest.(check bool) "finitization is finite in the state" true b
  | Error e -> Alcotest.fail e

let test_finitize_preserves_finite () =
  (* a finite query is equivalent to its finitization (Thm 2.2(2)):
     its answer in this state must coincide *)
  let finite_q = parse "exists y. R(y) /\\ x < y" in
  let fin = Finitization.finitize finite_q in
  let run f =
    match
      Fq_eval.Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 5_000)
        ~domain:presburger ~state:nat_state f
    with
    | Ok (Fq_eval.Enumerate.Complete r) -> r
    | Ok (Fq_eval.Enumerate.Partial _) -> Alcotest.fail "out of fuel"
    | Error e -> Alcotest.fail e
  in
  Alcotest.check rel "same answers" (run finite_q) (run fin)

let test_relative_safety_order () =
  (* E5 / Theorem 2.5 over N_< and Presburger *)
  let finite_cases = [ "R(x)"; "exists y. R(y) /\\ x < y"; "x < 3" ] in
  let infinite_cases = [ "~R(x)"; "exists y. R(y) /\\ y < x"; "3 < x"; "x = x" ] in
  List.iter
    (fun f ->
      match
        Relative_safety.via_finitization ~domain:presburger
          ~decide:Fq_domain.Presburger.decide ~state:nat_state (parse f)
      with
      | Ok b -> Alcotest.(check bool) (f ^ " finite") true b
      | Error e -> Alcotest.failf "%s: %s" f e)
    finite_cases;
  List.iter
    (fun f ->
      match
        Relative_safety.via_finitization ~domain:presburger
          ~decide:Fq_domain.Presburger.decide ~state:nat_state (parse f)
      with
      | Ok b -> Alcotest.(check bool) (f ^ " infinite") false b
      | Error e -> Alcotest.failf "%s: %s" f e)
    infinite_cases

let test_relative_safety_state_dependence () =
  (* the same query can be finite in one state and infinite in another:
     x < y for y in R — infinite iff R nonempty... rather: y < x with R
     empty is finite (vacuously), with R nonempty infinite *)
  let f = parse "exists y. R(y) /\\ y < x" in
  let empty_state = State.make ~schema:nat_schema [] in
  (match
     Relative_safety.via_finitization ~domain:presburger
       ~decide:Fq_domain.Presburger.decide ~state:empty_state f
   with
  | Ok b -> Alcotest.(check bool) "finite in the empty state" true b
  | Error e -> Alcotest.fail e);
  match
    Relative_safety.via_finitization ~domain:presburger
      ~decide:Fq_domain.Presburger.decide ~state:nat_state f
  with
  | Ok b -> Alcotest.(check bool) "infinite once R is inhabited" false b
  | Error e -> Alcotest.fail e

(* ---------------------- extended active domain --------------------- *)

let test_ext_active_finite_in_state () =
  (* E6 / Theorem 2.6 over N' *)
  let check f expected =
    match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state (parse f) with
    | Ok b -> Alcotest.(check bool) f expected b
    | Error e -> Alcotest.failf "%s: %s" f e
  in
  check "R(x)" true;
  check "~R(x)" false;
  check "exists y. R(y) /\\ x = y'" true (* successors of R elements *);
  check "exists y. R(y) /\\ x' = y" true (* predecessors *);
  check "x != 3" false;
  check "x = 3 \\/ x = 7" true;
  check "exists y. R(y) /\\ x != y" false

let test_ext_active_restrict () =
  (* Theorem 2.7: the restriction operator bounds every free variable *)
  let f = parse "x != 3" in
  let restricted = Ext_active.restrict ~schema:nat_schema_assoc f in
  (match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state restricted with
  | Ok b -> Alcotest.(check bool) "restricted formula is finite" true b
  | Error e -> Alcotest.fail e);
  (* and restriction of an already-finite query does not change answers *)
  let g = parse "exists y. R(y) /\\ x = y'" in
  let gr = Ext_active.restrict ~schema:nat_schema_assoc g in
  let run f =
    match
      Fq_eval.Enumerate.run_budgeted ~budget:(Fq_core.Budget.of_fuel ~share:false 5_000)
        ~domain:succ_domain ~state:nat_state f
    with
    | Ok (Fq_eval.Enumerate.Complete r) -> r
    | Ok (Fq_eval.Enumerate.Partial _) -> Alcotest.fail "out of fuel"
    | Error e -> Alcotest.fail e
  in
  Alcotest.check rel "same answers after restriction" (run g) (run gr)

(* ----------------------- equality-domain safety -------------------- *)

let test_relative_safety_equality () =
  let check f expected =
    match Relative_safety.via_active_domain ~state (parse f) with
    | Ok b -> Alcotest.(check bool) f expected b
    | Error e -> Alcotest.failf "%s: %s" f e
  in
  check "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" true;
  check "~F(x, y)" false;
  check "(exists y w. y != w /\\ F(x, y) /\\ F(x, w)) \\/ (exists y. F(x, y) /\\ F(y, z))"
    false (* the intro's unsafe union — unsafe because adam has two sons *);
  check "exists y. F(x, y)" true;
  check "x = x" false

let test_unsafe_union_state_dependence () =
  (* footnote 4: M(x) ∨ G(x,z) only gives an infinite answer if someone
     has two or more sons *)
  let f =
    parse
      "(exists y w. y != w /\\ F(x, y) /\\ F(x, w)) \\/ (exists y. F(x, y) /\\ F(y, z))"
  in
  let single_sons =
    State.make ~schema
      [ ("F", Relation.make ~arity:2 [ [ s "adam"; s "cain" ]; [ s "cain"; s "enoch" ] ]) ]
  in
  match Relative_safety.via_active_domain ~state:single_sons f with
  | Ok b -> Alcotest.(check bool) "finite when all fathers have one son" true b
  | Error e -> Alcotest.fail e

let test_decide_for_dispatch () =
  Alcotest.(check bool) "traces refused" true
    (Result.is_error
       (Relative_safety.decide_for ~domain:(module Fq_domain.Traces)
          ~state:(Diagonal.state_for "11") (parse "x = x")))

(* ------------------------- formula enumeration --------------------- *)

let voc =
  { Formula_enum.preds = [ ("F", 2) ]; consts = [ "a" ]; funs = [] }

let test_formula_enum () =
  let first = List.of_seq (Seq.take 200 (Formula_enum.enumerate voc ())) in
  Alcotest.(check int) "no duplicates" (List.length first)
    (List.length (List.sort_uniq compare first));
  let sizes = List.map Formula.size first in
  Alcotest.(check bool) "sizes nondecreasing" true (List.sort compare sizes = sizes);
  Alcotest.(check bool) "True appears" true (List.mem Formula.True first);
  (* a specific small formula appears *)
  let target = parse "F(x0, x0)" in
  Alcotest.(check bool) "F(x0,x0) appears" true (List.exists (Formula.equal target) first)

let test_formula_enum_with_free () =
  let free_x =
    List.of_seq (Seq.take 30 (Formula_enum.enumerate_with_free voc ~free:[ "x0" ] ()))
  in
  Alcotest.(check bool) "every formula has exactly free x0" true
    (List.for_all (fun f -> Formula.free_vars f = [ "x0" ]) free_x)

(* ------------------------------ syntaxes --------------------------- *)

let test_syntax_classes () =
  let sr = Syntax_class.safe_range ~schema:schema_assoc ~vocabulary:voc in
  Alcotest.(check bool) "accepts safe" true (sr.Syntax_class.accepts (parse "F(x, y)"));
  Alcotest.(check bool) "rejects unsafe" false (sr.Syntax_class.accepts (parse "~F(x, y)"));
  let enumerated = List.of_seq (Seq.take 10 (sr.Syntax_class.enumerate ())) in
  Alcotest.(check bool) "all enumerated accepted" true
    (List.for_all sr.Syntax_class.accepts enumerated);
  let fin = Syntax_class.finitizations ~vocabulary:voc in
  let f = Finitization.finitize (parse "~F(x, y)") in
  Alcotest.(check bool) "finitization accepted" true (fin.Syntax_class.accepts f);
  Alcotest.(check bool) "raw formula rejected" false
    (fin.Syntax_class.accepts (parse "~F(x, y)"))

(* -------------------------- Theorem 3.1 ---------------------------- *)

let scan = Fq_tm.Encode.encode Fq_tm.Zoo.scan_right
let halter = Fq_tm.Encode.encode Fq_tm.Zoo.halt
let looper = Fq_tm.Encode.encode Fq_tm.Zoo.loop

let test_equivalent_queries () =
  let q1 = Diagonal.totality_query scan in
  (match Diagonal.equivalent_queries q1 q1 with
  | Ok b -> Alcotest.(check bool) "query equivalent to itself" true b
  | Error e -> Alcotest.fail e);
  match Diagonal.equivalent_queries q1 (Diagonal.totality_query halter) with
  | Ok b -> Alcotest.(check bool) "different machines differ" false b
  | Error e -> Alcotest.fail e

let test_fresh_total_machine () =
  let avoid = [ scan; halter; looper ] in
  let fresh = Diagonal.fresh_total_machine ~avoid in
  let fresh_word = Fq_tm.Encode.encode fresh in
  Alcotest.(check bool) "fresh differs from avoided" true
    (not (List.mem fresh_word avoid));
  (* behavioral difference on the designated inputs *)
  List.iteri
    (fun i m ->
      let w = String.make (i + 1) '1' in
      let steps_fresh = Fq_tm.Run.halts_within ~fuel:100 fresh w in
      let steps_old = Fq_tm.Run.halts_within ~fuel:100 (Fq_tm.Encode.decode m) w in
      Alcotest.(check bool)
        (Printf.sprintf "differs from machine %d on %s" i w)
        true (steps_fresh <> steps_old))
    avoid;
  (* and the fresh machine is total on a sample of inputs *)
  Fq_words.Word.enumerate_over "1-" () |> Seq.take 40
  |> Seq.iter (fun w ->
         Alcotest.(check bool)
           (Printf.sprintf "halts on %S" w)
           true
           (Option.is_some (Fq_tm.Run.halts_within ~fuel:10_000 fresh w)))

let manual_syntax name formulas =
  { Syntax_class.name;
    description = name;
    accepts = (fun f -> List.exists (Formula.equal f) formulas);
    enumerate = (fun () -> List.to_seq formulas) }

let test_defeat_missing () =
  (* a syntax containing only scan_right's (finite) totality query: the
     diagonalization must produce a total machine it misses *)
  let syntax = manual_syntax "just-scan" [ Diagonal.totality_query scan ] in
  match Diagonal.defeat ~syntax ~budget:4 with
  | Ok (Diagonal.Missed_finite_query { machine; _ }) ->
    Alcotest.(check bool) "missed machine is machine-shaped" true
      (Fq_words.Word.is_machine_shaped machine);
    (* the missed machine is total on a sample *)
    Fq_words.Word.enumerate_over "1-" () |> Seq.take 20
    |> Seq.iter (fun w ->
           Alcotest.(check bool)
             (Printf.sprintf "missed machine halts on %S" w)
             true
             (Option.is_some
                (Fq_tm.Run.halts_within ~fuel:10_000 (Fq_tm.Encode.decode machine) w)))
  | Ok (Diagonal.Admits_unsafe _) -> Alcotest.fail "expected a missed query"
  | Error e -> Alcotest.fail e

let test_defeat_unsafe () =
  (* a syntax containing the looper's totality query admits an unsafe
     formula *)
  let syntax =
    manual_syntax "with-looper"
      [ Diagonal.totality_query scan; Diagonal.totality_query looper ]
  in
  match Diagonal.defeat ~syntax ~budget:4 with
  | Ok (Diagonal.Admits_unsafe { witness_machine; witness_input; _ }) ->
    Alcotest.(check string) "the looper is the witness" looper witness_machine;
    (* and it indeed diverges there *)
    Alcotest.(check (option int)) "diverges" None
      (Fq_tm.Run.halts_within ~fuel:2_000 (Fq_tm.Encode.decode witness_machine) witness_input)
  | Ok (Diagonal.Missed_finite_query _) -> Alcotest.fail "expected an unsafe formula"
  | Error e -> Alcotest.fail e

let test_enumerate_total_via () =
  (* running the reduction forward over a syntax covering two machines *)
  let syntax =
    manual_syntax "two"
      [ Diagonal.totality_query scan; Diagonal.totality_query halter ]
  in
  match
    Diagonal.enumerate_total_machines_via ~syntax ~formula_budget:2 ~machine_budget:40
  with
  | Ok machines ->
    Alcotest.(check bool) "halter found (short encoding)" true (List.mem halter machines);
    List.iter
      (fun m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S collected means covered" m)
          true
          (List.mem m [ scan; halter ]))
      machines
  | Error e -> Alcotest.fail e

(* -------------------------- Theorem 3.3 ---------------------------- *)

let test_halting_reduction () =
  (* halting side: finite answer, certified *)
  let fuel n = Fq_core.Budget.of_fuel n in
  (match Halting_reduction.check ~budget:(fuel 100) ~machine:scan ~input:"11" with
  | Ok (Halting_reduction.Halts { steps; answer }) ->
    Alcotest.(check int) "steps" 2 steps;
    Alcotest.(check int) "answer = steps+1 traces" 3 (Relation.cardinal answer)
  | Ok (Halting_reduction.Diverges_beyond _) -> Alcotest.fail "scan halts"
  | Error e -> Alcotest.fail e);
  (* diverging side: unboundedly many tuples *)
  (match Halting_reduction.check ~budget:(fuel 500) ~machine:looper ~input:"1" with
  | Ok (Halting_reduction.Diverges_beyond { trace_count }) ->
    Alcotest.(check int) "count reaches the fuel bound" 500 trace_count
  | Ok (Halting_reduction.Halts _) -> Alcotest.fail "looper diverges"
  | Error e -> Alcotest.fail e);
  (* the parity machine: instance-sensitive *)
  (match
     Halting_reduction.check ~budget:(fuel 100)
       ~machine:(Fq_tm.Encode.encode Fq_tm.Zoo.parity) ~input:"11"
   with
  | Ok (Halting_reduction.Halts { steps; _ }) -> Alcotest.(check int) "even halts" 2 steps
  | Ok (Halting_reduction.Diverges_beyond _) -> Alcotest.fail "even input halts"
  | Error e -> Alcotest.fail e);
  match
    Halting_reduction.check ~budget:(fuel 100)
      ~machine:(Fq_tm.Encode.encode Fq_tm.Zoo.parity) ~input:"111"
  with
  | Ok (Halting_reduction.Diverges_beyond _) -> ()
  | Ok (Halting_reduction.Halts _) -> Alcotest.fail "odd input diverges"
  | Error e -> Alcotest.fail e

let test_bounded_infinite_verdict () =
  (* over a domain with a complete procedure, bounded recognizes the
     infinite case outright *)
  match
    Relative_safety.bounded ~budget:(Fq_core.Budget.of_fuel ~share:false 2_000)
      ~domain:presburger ~state:nat_state (parse "~R(x)")
  with
  | Ok Relative_safety.Infinite -> ()
  | Ok _ -> Alcotest.fail "expected the Infinite verdict"
  | Error e -> Alcotest.fail e

let test_bounded_relative_safety_traces () =
  (* the only tool Theorem 3.3 leaves us over T *)
  let domain : Fq_domain.Domain.t = (module Fq_domain.Traces) in
  let query, st = Halting_reduction.instance ~machine:scan ~input:"1" in
  match
    Relative_safety.bounded ~budget:(Fq_core.Budget.of_fuel ~share:false 3_000) ~domain
      ~state:st query
  with
  | Ok (Relative_safety.Finite r) ->
    Alcotest.(check int) "two traces (scan halts on 1 in 1 step)" 2 (Relation.cardinal r)
  | Ok _ -> Alcotest.fail "expected certified finiteness"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "fq_safety"
    [ ( "safe_range",
        [ Alcotest.test_case "positive" `Quick test_safe_range_positive;
          Alcotest.test_case "negative" `Quick test_safe_range_negative ] );
      ( "algebra",
        [ Alcotest.test_case "matches enumeration" `Quick test_algebra_matches_enumeration;
          Alcotest.test_case "active-domain semantics" `Quick
            test_algebra_active_domain_semantics;
          Alcotest.test_case "rejects function terms" `Quick test_algebra_rejects_functions
        ] );
      ( "finitization",
        [ Alcotest.test_case "always finite" `Quick test_finitize_always_finite;
          Alcotest.test_case "preserves finite queries" `Quick test_finitize_preserves_finite;
          Alcotest.test_case "relative safety over N_<" `Quick test_relative_safety_order;
          Alcotest.test_case "state dependence" `Quick test_relative_safety_state_dependence
        ] );
      ( "ext_active",
        [ Alcotest.test_case "finite_in_state" `Quick test_ext_active_finite_in_state;
          Alcotest.test_case "restrict" `Quick test_ext_active_restrict ] );
      ( "relative_safety",
        [ Alcotest.test_case "equality domain" `Quick test_relative_safety_equality;
          Alcotest.test_case "unsafe union state dependence" `Quick
            test_unsafe_union_state_dependence;
          Alcotest.test_case "dispatch" `Quick test_decide_for_dispatch ] );
      ( "formula_enum",
        [ Alcotest.test_case "enumeration" `Quick test_formula_enum;
          Alcotest.test_case "with free variables" `Quick test_formula_enum_with_free ] );
      ("syntax_class", [ Alcotest.test_case "classes" `Quick test_syntax_classes ]);
      ( "theorem_3_1",
        [ Alcotest.test_case "equivalence test" `Quick test_equivalent_queries;
          Alcotest.test_case "fresh total machine" `Quick test_fresh_total_machine;
          Alcotest.test_case "defeat: missed finite query" `Quick test_defeat_missing;
          Alcotest.test_case "defeat: admits unsafe" `Quick test_defeat_unsafe;
          Alcotest.test_case "reduction forward" `Quick test_enumerate_total_via ] );
      ( "theorem_3_3",
        [ Alcotest.test_case "halting reduction" `Quick test_halting_reduction;
          Alcotest.test_case "bounded: infinite verdict" `Quick test_bounded_infinite_verdict;
          Alcotest.test_case "bounded relative safety over T" `Quick
            test_bounded_relative_safety_traces ] ) ]
