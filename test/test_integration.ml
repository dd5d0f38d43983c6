(* Cross-layer integration and property tests:

   - the three evaluators (Section 1.1 enumeration, active-domain algebra,
     RANF algebra) agree on randomized safe-range queries and states;
   - Cooper's quantifier elimination preserves semantics under ground
     instantiation of free variables;
   - the Reach-theory elimination agrees with direct evaluation on
     one-free-variable formulas instantiated with sample words;
   - the finitization operator's two Theorem 2.2 properties hold on
     randomized queries. *)

open Fq_db
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term

let parse = Fq_logic.Parser.formula_exn
let s = Value.str
let rel = Alcotest.testable Relation.pp Relation.equal

let schema_assoc = [ ("F", 2); ("S", 1) ]
let schema = Schema.make schema_assoc
let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)

(* ------------------------- RANF unit tests ------------------------- *)

let family =
  Relation.make ~arity:2
    [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
      [ s "enoch"; s "irad" ] ]

let smokers = Relation.make ~arity:1 [ [ s "cain" ]; [ s "irad" ] ]
let state = State.make ~schema [ ("F", family); ("S", smokers) ]

let ranf_run f =
  match Fq_eval.Ranf.run ~domain:eq_domain ~state (parse f) with
  | Ok r -> r
  | Error e -> Alcotest.failf "ranf %s: %s" f e

let adom_run f =
  match Fq_eval.Algebra_translate.run ~domain:eq_domain ~state (parse f) with
  | Ok r -> r
  | Error e -> Alcotest.failf "adom %s: %s" f e

let test_ranf_basic () =
  List.iter
    (fun f -> Alcotest.check rel f (adom_run f) (ranf_run f))
    [ "F(x, y)";
      "exists y z. y != z /\\ F(x, y) /\\ F(x, z)";
      "exists y. F(x, y) /\\ F(y, z)";
      "F(x, y) /\\ ~F(y, x)";
      "F(x, y) /\\ ~S(y)";
      "x = \"adam\"";
      "F(x, y) /\\ y = z" (* equality extends columns *);
      "exists x y. F(x, y)";
      "F(x, y) \\/ F(y, x)";
      (* a guarded inner disjunction with unequal frees: needs push_guards *)
      "F(x, y) /\\ (S(x) \\/ S(y))";
      (* guarded negation of a disjunction *)
      "F(x, y) /\\ ~(S(x) \\/ S(y))";
      (* universal through double negation *)
      "S(x) /\\ (forall y. F(x, y) -> S(y))";
      "exists y. F(x, y) /\\ (forall z. F(x, z) -> z = y)" ]

let test_ranf_rejects_unsafe () =
  List.iter
    (fun f ->
      match Fq_eval.Ranf.compile ~domain:eq_domain ~state (parse f) with
      | Ok _ -> Alcotest.failf "%s should be rejected" f
      | Error _ -> ())
    [ "~F(x, y)"; "x = y"; "F(x, x) \\/ S(y)" ]

let test_ranf_no_adom_literal () =
  (* RANF plans never embed the active domain: every literal is tiny *)
  let check_plan f =
    match Fq_eval.Ranf.compile ~domain:eq_domain ~state (parse f) with
    | Error e -> Alcotest.failf "%s: %s" f e
    | Ok { plan; _ } ->
      let rec max_lit = function
        | Relalg.Lit r -> Relation.cardinal r
        | Relalg.Rel _ -> 0
        | Relalg.Select (_, p) | Relalg.Project (_, p) -> max_lit p
        | Relalg.Product (p, q)
        | Relalg.Join (_, p, q)
        | Relalg.Union (p, q)
        | Relalg.Diff (p, q) ->
          max (max_lit p) (max_lit q)
      in
      Alcotest.(check bool) (f ^ ": no adom literal") true (max_lit plan <= 1)
  in
  List.iter check_plan
    [ "F(x, y) /\\ ~S(y)"; "exists y. F(x, y) /\\ F(y, z)"; "S(x) /\\ (forall y. F(x, y) -> S(y))" ]

(* ---------------- randomized three-evaluator agreement ------------- *)

let var_pool = [ "x"; "y"; "z" ]
let const_pool = [ "a"; "b"; "c"; "d" ]

(* a grammar biased towards (but not guaranteeing) safe-range formulas;
   the property filters with the syntactic check *)
let gen_formula : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl var_pool in
  let const = oneofl const_pool in
  let atom =
    oneof
      [ map2 (fun v w -> Formula.Atom ("F", [ Term.Var v; Term.Var w ])) var var;
        map (fun v -> Formula.Atom ("S", [ Term.Var v ])) var;
        map2 (fun v c -> Formula.Eq (Term.Var v, Term.Const c)) var const ]
  in
  fix
    (fun self n ->
      if n <= 0 then atom
      else
        frequency
          [ (3, atom);
            (3, map2 (fun f g -> Formula.And (f, g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun f g -> Formula.Or (f, g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun f g -> Formula.And (f, Formula.Not g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun v f -> Formula.Exists (v, f)) var (self (n - 1))) ])
    4

let gen_state : State.t QCheck.Gen.t =
  let open QCheck.Gen in
  let value = map s (oneofl const_pool) in
  let* f_tuples = list_size (int_bound 6) (pair value value) in
  let* s_tuples = list_size (int_bound 4) value in
  return
    (State.make ~schema
       [ ("F", Relation.make ~arity:2 (List.map (fun (a, b) -> [ a; b ]) f_tuples));
         ("S", Relation.make ~arity:1 (List.map (fun v -> [ v ]) s_tuples)) ])

let arb_sr_case =
  QCheck.make
    ~print:(fun (f, st) -> Formula.to_string f ^ " | " ^ Format.asprintf "%a" State.pp st)
    QCheck.Gen.(pair gen_formula gen_state)

let prop_three_evaluators_agree =
  QCheck.Test.make ~name:"enumerate = adom-algebra = ranf-algebra on safe-range queries"
    ~count:120 arb_sr_case (fun (f, st) ->
      QCheck.assume (Fq_eval.Safe_range.is_safe_range ~schema:schema_assoc f);
      let adom =
        match Fq_eval.Algebra_translate.run ~domain:eq_domain ~state:st f with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "adom: %s" e
      in
      let ranf =
        match Fq_eval.Ranf.run ~domain:eq_domain ~state:st f with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "ranf: %s" e
      in
      (* the enumeration's completeness certificates are exponential in
         the answer size over the equality domain, so only cross-check it
         on small answers *)
      let enum_ok =
        if Relation.cardinal adom > 8 then true
        else
          match
            Fq_eval.Enumerate.run ~fuel:8_000 ~max_certified:10 ~domain:eq_domain ~state:st f
          with
          | Ok (Fq_eval.Enumerate.Finite r) -> Relation.equal adom r
          | Ok (Fq_eval.Enumerate.Out_of_fuel _) ->
            QCheck.Test.fail_reportf "enumeration out of fuel"
          | Error e -> QCheck.Test.fail_reportf "enumerate: %s" e
      in
      Relation.equal adom ranf && enum_ok)

(* The served explain op and the slow log show [Query.plan]; evaluation
   answers from [eval_resilient].  Both walk the one tier ladder, so
   whenever an evaluation completes, the dry plan names the same tier and
   the same passed tiers, and its compiled plan gives the same answer. *)
let prop_plan_agrees_with_eval =
  QCheck.Test.make ~name:"Query.plan names the tier and plan eval_resilient answers with"
    ~count:120 arb_sr_case (fun (f, st) ->
      let module Q = Fq_eval.Query in
      let rep =
        Q.eval_resilient ~budget:(Fq_core.Budget.of_fuel 2_000) ~max_certified:10
          ~domain:eq_domain ~state:st f
      in
      match rep.Q.verdict with
      | Q.Partial _ | Q.Failed _ -> true
      | Q.Complete { answer; tier } -> (
        let p = Q.plan ~domain:eq_domain ~state:st f in
        if p.Q.tier <> tier || p.Q.passed <> rep.Q.attempts then
          QCheck.Test.fail_reportf "planned %s, answered by %s" p.Q.tier tier;
        match p.Q.compiled with
        | None -> tier = Q.scan_tier
        | Some c -> (
          match Fq_eval.Algebra_translate.eval_compiled ~domain:eq_domain ~state:st c with
          | Ok r -> Relation.equal r answer
          | Error e -> QCheck.Test.fail_reportf "planned %s fails: %s" tier e)))

(* -------------------- Cooper ground instantiation ------------------ *)

let gen_presburger : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y" ] in
  let term =
    oneof
      [ map (fun v -> Term.Var v) var;
        map (fun n -> Term.Const (string_of_int n)) (int_bound 4);
        map2
          (fun v n -> Term.App ("+", [ Term.Var v; Term.Const (string_of_int n) ]))
          var (int_bound 3) ]
  in
  let atom =
    oneof
      [ map2 (fun t u -> Formula.Atom ("<", [ t; u ])) term term;
        map2 (fun t u -> Formula.Eq (t, u)) term term;
        map2 (fun d t -> Formula.Atom ("dvd", [ Term.Const (string_of_int (d + 1)); t ])) (int_bound 3) term ]
  in
  let qf =
    fix
      (fun self n ->
        if n <= 0 then atom
        else
          oneof
            [ atom;
              map (fun f -> Formula.Not f) (self (n - 1));
              map2 (fun f g -> Formula.And (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> Formula.Or (f, g)) (self (n / 2)) (self (n / 2)) ])
      4
  in
  (* quantify y, keep x free *)
  map (fun f -> Formula.Exists ("y", f)) qf

let prop_cooper_qe_ground =
  QCheck.Test.make ~name:"Cooper QE agrees with decide on ground instances" ~count:200
    (QCheck.pair (QCheck.make ~print:Formula.to_string gen_presburger) (QCheck.int_range 0 6))
    (fun (f, n) ->
      let inst = Formula.subst [ ("x", Term.Const (string_of_int n)) ] f in
      let direct =
        match Fq_domain.Cooper.decide inst with
        | Ok b -> b
        | Error e -> QCheck.Test.fail_reportf "direct: %s" e
      in
      let via_qe =
        match Fq_domain.Cooper.qe f with
        | Error e -> QCheck.Test.fail_reportf "qe: %s" e
        | Ok qf -> (
          match
            Fq_domain.Cooper.eval_qf ~env:[ ("x", Fq_numeric.Bigint.of_int n) ] qf
          with
          | Ok b -> b
          | Error e -> QCheck.Test.fail_reportf "eval: %s" e)
      in
      direct = via_qe)

(* ------------------- Reach QE ground instantiation ----------------- *)

let scan = Fq_tm.Encode.encode Fq_tm.Zoo.scan_right

let sample_words =
  let traces =
    List.filteri (fun i _ -> i < 3)
      (List.of_seq (Seq.take 3 (Fq_tm.Trace.traces ~machine:scan ~input:"11")))
  in
  [ ""; "1"; "11"; "*"; scan; "1.1" ] @ traces

let reach_formulas : (string * Fq_domain.Reach.t) list =
  let open Fq_domain.Reach in
  [ ("T(x)", Atom (Cls (Traces, Base (Var "x"))));
    ("M(x)", Atom (Cls (Machines, Base (Var "x"))));
    ("m(x) = scan", Atom (Eq (M_of (Var "x"), Base (Const scan))));
    ("w(x) = 11", Atom (Eq (W_of (Var "x"), Base (Const "11"))));
    ("B_1-(x)", Atom (B ("1-", Base (Var "x"))));
    ("D2(scan, x)", Atom (D (2, Base (Const scan), Base (Var "x"))));
    ("E3(m(x), w(x))", Atom (E (3, M_of (Var "x"), W_of (Var "x"))));
    ( "∃y (T(y) ∧ m(y) = x)",
      Exists ("y", And (Atom (Cls (Traces, Base (Var "y"))), Atom (Eq (M_of (Var "y"), Base (Var "x"))))) );
    ( "∀y (m(y) != x ∨ T(y))",
      Forall
        ("y", Or (Not (Atom (Eq (M_of (Var "y"), Base (Var "x")))), Atom (Cls (Traces, Base (Var "y"))))) )
  ]

let test_reach_qe_ground_agreement () =
  (* eliminate quantifiers from f(x); on each sample word the residue must
     agree with direct (simulation-based) evaluation of f *)
  List.iter
    (fun (label, f) ->
      let qf = Fq_domain.Reach_qe.eliminate f in
      List.iter
        (fun w ->
          let direct =
            match Fq_domain.Reach_qe.decide (Fq_domain.Reach.subst_base "x" (Const w) f) with
            | Ok b -> b
            | Error e -> Alcotest.failf "%s / %S direct: %s" label w e
          in
          let via_qe =
            match Fq_domain.Reach.holds ~env:[ ("x", w) ] qf with
            | Ok b -> b
            | Error e -> Alcotest.failf "%s / %S qe-residue: %s" label w e
          in
          Alcotest.(check bool) (Printf.sprintf "%s on %S" label w) direct via_qe)
        sample_words)
    reach_formulas

(* ------------------------ finitization property -------------------- *)

let nat_schema = Schema.make [ ("R", 1) ]
let presburger : Fq_domain.Domain.t = (module Fq_domain.Presburger)

let gen_nat_state : State.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* tuples = list_size (int_bound 4) (int_bound 9) in
  return
    (State.make ~schema:nat_schema
       [ ("R", Relation.make ~arity:1 (List.map (fun n -> [ Value.int n ]) tuples)) ])

let gen_nat_query : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneofl
    [ parse "R(x)"; parse "~R(x)"; parse "exists y. R(y) /\\ x < y";
      parse "exists y. R(y) /\\ y < x"; parse "x < 5"; parse "5 < x";
      parse "exists y. R(y) /\\ x = y"; parse "x = x" ]

let prop_finitization_always_finite =
  QCheck.Test.make ~name:"finitizations are finite in every state (Thm 2.2)" ~count:100
    (QCheck.pair (QCheck.make ~print:Formula.to_string gen_nat_query)
       (QCheck.make ~print:(Format.asprintf "%a" State.pp) gen_nat_state))
    (fun (f, st) ->
      match
        Fq_safety.Relative_safety.via_finitization ~domain:presburger
          ~decide:Fq_domain.Presburger.decide ~state:st (Fq_safety.Finitization.finitize f)
      with
      | Ok b -> b
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let prop_finitization_equivalence =
  QCheck.Test.make
    ~name:"φ finite in state ⟺ φ ≡ φ^F in state (Thms 2.2/2.5)" ~count:100
    (QCheck.pair (QCheck.make ~print:Formula.to_string gen_nat_query)
       (QCheck.make ~print:(Format.asprintf "%a" State.pp) gen_nat_state))
    (fun (f, st) ->
      (* decide finiteness by the Thm 2.5 criterion ... *)
      let by_criterion =
        match
          Fq_safety.Relative_safety.via_finitization ~domain:presburger
            ~decide:Fq_domain.Presburger.decide ~state:st f
        with
        | Ok b -> b
        | Error e -> QCheck.Test.fail_reportf "criterion: %s" e
      in
      (* ... and cross-check with bounded enumeration *)
      match Fq_eval.Enumerate.run ~fuel:400 ~max_certified:25 ~domain:presburger ~state:st f with
      | Ok (Fq_eval.Enumerate.Finite _) -> by_criterion = true
      | Ok (Fq_eval.Enumerate.Out_of_fuel _) ->
        (* could be a large finite answer; only the infinite direction is
           conclusive — accept *)
        true
      | Error e -> QCheck.Test.fail_reportf "enumerate: %s" e)

let () =
  Alcotest.run "integration"
    [ ( "ranf",
        [ Alcotest.test_case "agrees with adom compilation" `Quick test_ranf_basic;
          Alcotest.test_case "rejects unsafe formulas" `Quick test_ranf_rejects_unsafe;
          Alcotest.test_case "plans avoid the active domain" `Quick test_ranf_no_adom_literal
        ] );
      ( "randomized",
        [ QCheck_alcotest.to_alcotest prop_three_evaluators_agree;
          QCheck_alcotest.to_alcotest prop_plan_agrees_with_eval;
          QCheck_alcotest.to_alcotest prop_cooper_qe_ground;
          QCheck_alcotest.to_alcotest prop_finitization_always_finite;
          QCheck_alcotest.to_alcotest prop_finitization_equivalence ] );
      ( "reach",
        [ Alcotest.test_case "QE agrees with simulation on samples" `Quick
            test_reach_qe_ground_agreement ] ) ]
