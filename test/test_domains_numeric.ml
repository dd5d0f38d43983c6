(* Tests for the numeric domains: Cooper's algorithm over ℤ, Presburger
   over ℕ, and the dedicated procedures of the paper's Section 2 — the
   N_< test-point elimination (§2.1) and the N' successor elimination
   (§2.2) — each cross-checked against Cooper. *)

open Fq_domain

let parse = Fq_logic.Parser.formula_exn

let check_decide name decide s expected =
  match decide (parse s) with
  | Ok b -> Alcotest.(check bool) (Printf.sprintf "%s: %s" name s) expected b
  | Error e -> Alcotest.failf "%s: %s: %s" name s e

let check_error name decide s =
  match decide (parse s) with
  | Ok b -> Alcotest.failf "%s: %s should error, got %b" name s b
  | Error _ -> ()

(* ------------------------------ Cooper ----------------------------- *)

let test_cooper_sentences () =
  let c = check_decide "cooper" Cooper.decide in
  c "forall x. exists y. y < x" true;
  c "exists x. 0 < x /\\ x < 1" false;
  c "forall x. 2 | x \\/ 2 | x + 1" true;
  c "exists x. x + x = 7" false;
  c "exists x. x + x = 8" true;
  c "forall x y. exists z. x + y = z" true;
  c "exists x. forall y. x <= y" false;
  c "forall x. x < x + 1" true;
  c "forall x y. x < y -> exists z. x < z /\\ z < y + 1" true;
  c "forall x y. x < y -> exists z. x < z /\\ z < y" false (* discreteness *);
  c "exists x. 3 | x /\\ 5 | x /\\ 0 < x /\\ x < 15" false;
  c "exists x. 3 | x /\\ 5 | x /\\ 0 < x /\\ x < 16" true;
  c "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" true;
  c "forall x. exists y. x = 3 * y \\/ x = 3 * y + 1 \\/ x = 3 * y + 2" true;
  c "forall x. exists y. x = 2 * y" false;
  c "forall x y z. x < y /\\ y < z -> x < z" true;
  c "exists x. x = -5 /\\ x < 0" true;
  c "forall x. 1 | x" true;
  c "exists x. 0 = 0 /\\ ~(x = x)" false

let test_cooper_errors () =
  check_error "cooper" Cooper.decide "exists x y. x * y = 6" (* nonlinear *);
  check_error "cooper" Cooper.decide "exists x. F(x)" (* db predicate *);
  check_error "cooper" Cooper.decide "x < 1" (* free variable *)

(* ---------------------------- Presburger --------------------------- *)

let test_presburger_sentences () =
  let c = check_decide "presburger" Presburger.decide in
  c "exists x. forall y. x <= y" true (* zero *);
  c "forall x. exists y. y < x" false (* no negatives *);
  c "forall x. exists y. x < y" true;
  c "forall x. 0 <= x" true;
  c "exists x. x < 0" false;
  c "forall x. 2 | x \\/ 2 | s(x)" true;
  c "forall x. exists y. x = y + y \\/ x = y + y + 1" true;
  c "exists x. x + x = 7" false;
  c "forall x y. x + y = y + x" true;
  c "forall x. x <= 5 \\/ 5 <= x" true;
  c "exists x. 5 < x /\\ x < 7" true (* x = 6 *);
  c "exists x. 5 < x /\\ x < 6" false;
  c "forall x. exists y. y + y <= x /\\ x <= y + y + 1" true;
  (* the Fact 2.1 element: a least element above any given one *)
  c "forall z. exists x. z < x /\\ forall y. z < y -> x <= y" true

let test_presburger_with_free () =
  let b = Fq_numeric.Bigint.of_int in
  let f = parse "exists y. x = y + y" in
  (match Presburger.decide_with_free ~env:[ ("x", b 4) ] f with
  | Ok v -> Alcotest.(check bool) "4 is even" true v
  | Error e -> Alcotest.fail e);
  match Presburger.decide_with_free ~env:[ ("x", b 7) ] f with
  | Ok v -> Alcotest.(check bool) "7 is odd" false v
  | Error e -> Alcotest.fail e

(* ------------------------------- N_< ------------------------------- *)

let test_nat_order_sentences () =
  let c = check_decide "nat_order" Nat_order.decide in
  c "exists x. forall y. x <= y" true;
  c "forall x. exists y. x < y" true;
  c "forall x. exists y. y < x" false;
  c "exists x. 5 < x /\\ x < 7" true;
  c "exists x. 5 < x /\\ x < 6" false;
  c "forall x y. x < y \\/ x = y \\/ y < x" true;
  c "forall x y z. x < y /\\ y < z -> x < z" true;
  c "exists x y z. x < y /\\ y < z /\\ z < 2" false (* needs 3 values below 2 *);
  c "exists x y z. x < y /\\ y < z /\\ z < 3" true (* 0 < 1 < 2 *);
  c "forall x. 0 <= x" true;
  c "forall x. exists y. x < y /\\ forall z. x < z -> y <= z" true;
  (* disequality pressure on the test-point set *)
  c "exists x. x != 0 /\\ x != 1 /\\ x != 2 /\\ x < 4" true (* x = 3 *);
  c "exists x. x != 0 /\\ x != 1 /\\ x != 2 /\\ x < 3" false;
  c "forall y. exists x. y < x /\\ x < y + 2" true (* x = y+1 *);
  c "forall y. exists x. y < x /\\ x < y + 1" false

let test_nat_order_vs_presburger () =
  (* the dedicated test-point QE agrees with Cooper via relativization *)
  let sentences =
    [ "forall x. exists y. x < y";
      "exists x. forall y. x <= y";
      "forall x y. x < y -> exists z. x < z /\\ z <= y";
      "forall x y. x < y -> exists z. x < z /\\ z < y";
      "exists x y. x < y /\\ y < x";
      "forall x. x = 0 \\/ exists y. y < x";
      "exists x. x != 0 /\\ forall y. y != 0 -> x <= y";
      "forall x. exists y z. x < y /\\ y < z";
      "exists x y. x != y /\\ x < 2 /\\ y < 2";
      "exists x y z. x != y /\\ y != z /\\ x != z /\\ z < 2 /\\ x < 2 /\\ y < 2";
      (* the elimination writes a negative offset as [v + -k] and must
         read it back *)
      "exists z. forall x. exists y. ~(y = 2 /\\ (y < x \\/ z = y))" ]
  in
  List.iter
    (fun s ->
      let f = parse s in
      match (Nat_order.decide f, Presburger.decide f) with
      | Ok a, Ok b -> Alcotest.(check bool) s b a
      | Error e, _ -> Alcotest.failf "nat_order %s: %s" s e
      | _, Error e -> Alcotest.failf "presburger %s: %s" s e)
    sentences

(* random <-sentences, cross-checked against Presburger *)
let gen_order_sentence : Fq_logic.Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let module F = Fq_logic.Formula in
  let module T = Fq_logic.Term in
  let vars = [ "x"; "y"; "z" ] in
  let term =
    oneof
      [ map (fun v -> T.Var v) (oneofl vars);
        map (fun n -> T.Const (string_of_int n)) (int_bound 3) ]
  in
  let atom =
    oneof
      [ map2 (fun t u -> F.Atom ("<", [ t; u ])) term term;
        map2 (fun t u -> F.Eq (t, u)) term term ]
  in
  let formula =
    fix
      (fun self n ->
        if n <= 0 then atom
        else
          oneof
            [ atom;
              map (fun f -> F.Not f) (self (n - 1));
              map2 (fun f g -> F.And (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> F.Or (f, g)) (self (n / 2)) (self (n / 2)) ])
      4
  in
  map
    (fun f ->
      (* close with alternating quantifiers *)
      let free = F.free_vars f in
      List.fold_left
        (fun acc (i, v) -> if i mod 2 = 0 then F.Exists (v, acc) else F.Forall (v, acc))
        f
        (List.mapi (fun i v -> (i, v)) free))
    formula

(* QE is worst-case exponential, and the generators occasionally produce a
   sentence that takes minutes to eliminate.  Running each decide under a
   generous budget turns that pathological tail into a discarded test case
   instead of a hung suite. *)
let budgeted_decide decide f =
  let budget = Fq_core.Budget.make ~fuel:200_000 () in
  match Fq_core.Budget.guard budget (fun () -> decide f) with
  | Error _ -> None (* tripped before the engine's own boundary rendered it *)
  | Ok (Error e) when Fq_core.Budget.failure_of_string e <> None -> None
  | Ok r -> Some r

let prop_order_matches_presburger =
  QCheck.Test.make ~name:"random N_< sentences: dedicated QE = Cooper" ~count:200
    (QCheck.make ~print:Fq_logic.Formula.to_string gen_order_sentence)
    (fun f ->
      match (budgeted_decide Nat_order.decide f, budgeted_decide Presburger.decide f) with
      | None, _ | _, None -> true (* budget tripped: skip this case *)
      | Some (Ok a), Some (Ok b) -> a = b
      | Some (Error e), _ | _, Some (Error e) -> QCheck.Test.fail_reportf "error: %s" e)

(* ------------------------------- N' -------------------------------- *)

let test_nat_succ_sentences () =
  let c = check_decide "nat_succ" Nat_succ.decide in
  c "forall x. exists y. y = x'" true;
  c "exists y. forall x. x' != y" true (* 0 is not a successor *);
  c "forall y. exists x. x' = y" false (* 0 again *);
  c "exists x. x'' = x'" false (* successor injective *);
  c "forall x y. x' = y' -> x = y" true;
  c "exists x. x = x'" false;
  c "exists x y. x != y" true;
  c "forall x. x = 0 \\/ exists y. y' = x" true;
  c "exists x. x' = 5 /\\ x = 4" true;
  c "exists x. x' = 0" false;
  c "exists x. x'' = 1" false (* would be -1 *);
  c "exists x. x'' = 2 /\\ x = 0" true;
  c "forall x. x != 3 -> exists y. y != x /\\ y = 3" true

let test_nat_succ_vs_presburger () =
  let sentences =
    [ "forall x. exists y. y = x'";
      "forall y. exists x. x' = y";
      "exists y. forall x. x' != y";
      "forall x y. x' = y' -> x = y";
      "exists x. x''' = 3";
      "exists x. x''' = 2";
      "forall x. exists y. y = x /\\ y' != x" ]
  in
  List.iter
    (fun s ->
      let f = parse s in
      match (Nat_succ.decide f, Presburger.decide f) with
      | Ok a, Ok b -> Alcotest.(check bool) s b a
      | Error e, _ -> Alcotest.failf "nat_succ %s: %s" s e
      | _, Error e -> Alcotest.failf "presburger %s: %s" s e)
    sentences

let gen_succ_sentence : Fq_logic.Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let module F = Fq_logic.Formula in
  let module T = Fq_logic.Term in
  let vars = [ "x"; "y"; "z" ] in
  let term =
    let* base =
      oneof
        [ map (fun v -> T.Var v) (oneofl vars);
          map (fun n -> T.Const (string_of_int n)) (int_bound 2) ]
    in
    let* k = int_bound 3 in
    let rec s n t = if n = 0 then t else s (n - 1) (T.App ("s", [ t ])) in
    return (s k base)
  in
  let atom = map2 (fun t u -> F.Eq (t, u)) term term in
  let formula =
    fix
      (fun self n ->
        if n <= 0 then atom
        else
          oneof
            [ atom;
              map (fun f -> F.Not f) (self (n - 1));
              map2 (fun f g -> F.And (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> F.Or (f, g)) (self (n / 2)) (self (n / 2)) ])
      4
  in
  map
    (fun f ->
      let free = F.free_vars f in
      List.fold_left
        (fun acc (i, v) -> if i mod 2 = 0 then F.Exists (v, acc) else F.Forall (v, acc))
        f
        (List.mapi (fun i v -> (i, v)) free))
    formula

let prop_succ_matches_presburger =
  QCheck.Test.make ~name:"random N' sentences: paper's QE = Cooper" ~count:200
    (QCheck.make ~print:Fq_logic.Formula.to_string gen_succ_sentence)
    (fun f ->
      match (budgeted_decide Nat_succ.decide f, budgeted_decide Presburger.decide f) with
      | None, _ | _, None -> true (* budget tripped: skip this case *)
      | Some (Ok a), Some (Ok b) -> a = b
      | Some (Error e), _ | _, Some (Error e) -> QCheck.Test.fail_reportf "error: %s" e)

let test_nat_succ_order_not_usable () =
  check_error "nat_succ" Nat_succ.decide "forall x y. x < y"

(* --------------------------- equality domain ----------------------- *)

let test_eq_domain () =
  let c = check_decide "equality" Eq_domain.decide in
  c "exists x y. x != y" true;
  c "forall x y. x = y" false;
  c "forall x. exists y. y != x" true;
  c "exists x. x = \"a\" /\\ x != \"a\"" false;
  c "exists x. x != \"a\" /\\ x != \"b\" /\\ x != \"c\"" true;
  c "forall x. x = \"a\" \\/ x != \"a\"" true;
  c "exists x y z. x != y /\\ y != z /\\ x != z" true;
  c "\"a\" = \"a\"" true;
  c "\"a\" = \"b\"" false;
  check_error "equality" Eq_domain.decide "exists x. x < 1"

(* the N' offset bound is an actual bound (Thm 2.7 machinery) *)
let test_qe_offset_bound () =
  let f = parse "exists x. x'' = y'" in
  let bound = Nat_succ.qe_offset_bound f in
  Alcotest.(check bool) "bound positive" true (bound >= 3);
  match Nat_succ.qe f with
  | Error e -> Alcotest.fail e
  | Ok qf ->
    let rec max_off = function
      | Fq_logic.Term.App ("s", [ t ]) -> 1 + max_off t
      | Fq_logic.Term.App (_, args) -> List.fold_left (fun m t -> max m (max_off t)) 0 args
      | _ -> 0
    in
    let rec formula_off = function
      | Fq_logic.Formula.Atom (_, ts) -> List.fold_left (fun m t -> max m (max_off t)) 0 ts
      | Fq_logic.Formula.Eq (t, u) -> max (max_off t) (max_off u)
      | Fq_logic.Formula.Not g -> formula_off g
      | Fq_logic.Formula.And (g, h) | Fq_logic.Formula.Or (g, h) ->
        max (formula_off g) (formula_off h)
      | _ -> 0
    in
    Alcotest.(check bool) "offsets within bound" true (formula_off qf <= bound)

let () =
  Alcotest.run "fq_domain (numeric)"
    [ ( "cooper",
        [ Alcotest.test_case "sentences" `Quick test_cooper_sentences;
          Alcotest.test_case "errors" `Quick test_cooper_errors ] );
      ( "presburger",
        [ Alcotest.test_case "sentences" `Quick test_presburger_sentences;
          Alcotest.test_case "free variables" `Quick test_presburger_with_free ] );
      ( "nat_order",
        [ Alcotest.test_case "sentences" `Quick test_nat_order_sentences;
          Alcotest.test_case "agrees with presburger" `Quick test_nat_order_vs_presburger;
          QCheck_alcotest.to_alcotest prop_order_matches_presburger ] );
      ( "nat_succ",
        [ Alcotest.test_case "sentences" `Quick test_nat_succ_sentences;
          Alcotest.test_case "agrees with presburger" `Quick test_nat_succ_vs_presburger;
          Alcotest.test_case "order not expressible" `Quick test_nat_succ_order_not_usable;
          Alcotest.test_case "offset bound" `Quick test_qe_offset_bound;
          QCheck_alcotest.to_alcotest prop_succ_matches_presburger ] );
      ("eq_domain", [ Alcotest.test_case "sentences" `Quick test_eq_domain ]) ]
