(* The paper's Section 2 positive cases, end to end over the numeric
   domains N_<, Presburger and N':

   - Fact 2.1: a finite but not domain-independent query;
   - Theorem 2.2: the finitization operator as an effective syntax;
   - Theorem 2.5: relative safety decided through finitization;
   - Theorems 2.6/2.7: the successor domain via the extended active
     domain.

   Run with: dune exec examples/numeric_safety.exe *)

open Finite_queries

let parse = Parser.formula_exn
let v = Value.int

let () =
  let presburger : Domain.t = (module Presburger) in
  let succ_domain : Domain.t = (module Nat_succ) in
  let schema = Schema.make [ ("R", 1) ] in
  let state = State.make ~schema [ ("R", Relation.make ~arity:1 [ [ v 2 ]; [ v 5 ] ]) ] in
  Format.printf "State over the naturals:@.%a@." State.pp state;

  (* Fact 2.1: the least element above every active-domain element *)
  let fact21 =
    parse "(forall y. R(y) -> y < x) /\\ (forall z. (forall y. R(y) -> y < z) -> x <= z)"
  in
  Format.printf "@.Fact 2.1's query (least element above the active domain):@.  %a@."
    Formula.pp fact21;
  let enumerate f =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 2_000) ~domain:presburger
      ~state f
  in
  (match enumerate fact21 with
  | Ok (Enumerate.Complete r) ->
    Format.printf "  natural answer: %a  (finite, but OUTSIDE the active domain!)@."
      Relation.pp r
  | _ -> Format.printf "  evaluation failed@.");
  (match Algebra_translate.run ~domain:presburger ~state fact21 with
  | Ok r ->
    Format.printf
      "  active-domain (algebra) answer: %a  — differs: the query is not \
       domain-independent@."
      Relation.pp r
  | Error e -> Format.printf "  algebra: %s@." e);

  (* Theorem 2.2: finitization *)
  let unsafe = parse "R(y) /\\ y < x" in
  Format.printf "@.An unsafe query: %a@." Formula.pp unsafe;
  let fin = Finitization.finitize unsafe in
  Format.printf "Its finitization (Theorem 2.2):@.  %a@." Formula.pp fin;
  (match enumerate unsafe with
  | Ok (Enumerate.Partial { tuples; _ }) ->
    Format.printf "  original: out of fuel with %d tuples — infinite@."
      (Relation.cardinal tuples)
  | Ok (Enumerate.Complete r) -> Format.printf "  original: finite %a@." Relation.pp r
  | Error e -> Format.printf "  original: %s@." e);
  (match enumerate fin with
  | Ok (Enumerate.Complete r) ->
    Format.printf "  finitization: finite %a (empty: the bound fails, so it truncates to ∅)@."
      Relation.pp r
  | Ok (Enumerate.Partial _) -> Format.printf "  finitization: out of fuel?!@."
  | Error e -> Format.printf "  finitization: %s@." e);

  (* Theorem 2.5: relative safety over any decidable extension of N_< *)
  Format.printf "@.Relative safety over Presburger (Theorem 2.5):@.";
  List.iter
    (fun q ->
      match
        Relative_safety.via_finitization ~domain:presburger ~decide:Presburger.decide ~state
          (parse q)
      with
      | Ok b -> Format.printf "  %-40s %s@." q (if b then "finite" else "infinite")
      | Error e -> Format.printf "  %-40s error (%s)@." q e)
    [ "R(x)"; "~R(x)"; "exists y. R(y) /\\ x < y"; "exists y. R(y) /\\ y < x";
      "x < 3 \\/ x = 7"; "2 | x" ];

  (* Theorems 2.6/2.7: the successor domain N' *)
  Format.printf "@.The successor domain N' (no order!):@.";
  List.iter
    (fun q ->
      match Ext_active.finite_in_state ~domain:succ_domain ~state (parse q) with
      | Ok b -> Format.printf "  %-40s %s@." q (if b then "finite" else "infinite")
      | Error e -> Format.printf "  %-40s error (%s)@." q e)
    [ "R(x)"; "~R(x)"; "exists y. R(y) /\\ x = y''"; "exists y. R(y) /\\ x'' = y"; "x != 3" ];
  let loose = parse "x != 3" in
  let restricted = Ext_active.restrict ~schema:[ ("R", 1) ] loose in
  Format.printf "@.Theorem 2.7's restriction of %a:@.  %a@." Formula.pp loose Formula.pp
    restricted;
  (match Ext_active.finite_in_state ~domain:succ_domain ~state restricted with
  | Ok b -> Format.printf "  restricted query finite: %b@." b
  | Error e -> Format.printf "  error: %s@." e);

  (* Corollary 2.3: arithmetic is undecidable yet keeps the finitization
     syntax *)
  Format.printf "@.Corollary 2.3 — full arithmetic:@.";
  (match Arithmetic.decide (parse "exists x y z. x * x + y * y = z * z /\\ 0 < x") with
  | Ok _ -> Format.printf "  (unexpectedly decided)@."
  | Error e -> Format.printf "  nonlinear sentence refused: %s@." e);
  let arith_unsafe = parse "exists y. x = y * y" in
  Format.printf "  ...but the finitization operator still applies syntactically:@.  %a@."
    Formula.pp
    (Finitization.finitize arith_unsafe)
