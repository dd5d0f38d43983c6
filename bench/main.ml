(* Benchmark and experiment harness.

   The paper has no numeric tables or figures (it is a pure theory paper),
   so the "evaluation" this harness regenerates is the experiment index of
   DESIGN.md / EXPERIMENTS.md: one section per paper claim (E1-E13),
   printing the same verification rows every run, followed by Bechamel
   microbenchmarks of every computational component - including the two
   ablation comparisons called out in DESIGN.md (dedicated QE procedures
   vs the Cooper baseline; enumeration evaluation vs compiled algebra).

   Run with: dune exec bench/main.exe            (experiments + benches)
             dune exec bench/main.exe -- quick   (experiments only)
             dune exec bench/main.exe -- json    (PR ablations, JSON to stdout) *)

open Finite_queries

let parse = Parser.formula_exn
let s = Value.str
let vi = Value.int

let section title = Format.printf "@.== %s ==@." title
let row fmt = Format.printf ("  " ^^ fmt ^^ "@.")

let check label expected actual =
  row "%-58s expected=%-9s observed=%-9s %s" label expected actual
    (if expected = actual then "OK" else "** MISMATCH **")

let bool_s b = string_of_bool b

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let eq_domain : Domain.t = (module Eq_domain)
let presburger : Domain.t = (module Presburger)
let succ_domain : Domain.t = (module Nat_succ)

let family_schema = Schema.make [ ("F", 2) ]

let family_state =
  State.make ~schema:family_schema
    [ ( "F",
        Relation.make ~arity:2
          [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
            [ s "enoch"; s "irad" ] ] ) ]

let m_query = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)"
let g_query = parse "exists y. F(x, y) /\\ F(y, z)"
let unsafe_union = Formula.Or (m_query, g_query)

let nat_schema = Schema.make [ ("R", 1) ]
let nat_state = State.make ~schema:nat_schema [ ("R", Relation.make ~arity:1 [ [ vi 2 ]; [ vi 5 ] ]) ]

let scan = Encode.encode Zoo.scan_right
let looper = Encode.encode Zoo.loop

(* ------------------------------------------------------------------ *)
(* Experiments E1-E13                                                  *)
(* ------------------------------------------------------------------ *)

let finite_eq state f =
  match Relative_safety.via_active_domain ~state f with
  | Ok b -> bool_s b
  | Error e -> "err:" ^ e

let e1 () =
  section "E1 (Sec. 1): the intro's queries over the father/son database";
  (match Enumerate.run ~domain:eq_domain ~state:family_state m_query with
  | Ok (Enumerate.Finite r) ->
    check "M(x) answer cardinality" "1" (string_of_int (Relation.cardinal r))
  | _ -> check "M(x) answer cardinality" "1" "failed");
  (match Enumerate.run ~domain:eq_domain ~state:family_state g_query with
  | Ok (Enumerate.Finite r) ->
    check "G(x,z) answer cardinality" "2" (string_of_int (Relation.cardinal r))
  | _ -> check "G(x,z) answer cardinality" "2" "failed");
  check "M finite in state" "true" (finite_eq family_state m_query);
  check "M \\/ G infinite in state (footnote 4)" "false" (finite_eq family_state unsafe_union);
  let single =
    State.make ~schema:family_schema
      [ ("F", Relation.make ~arity:2 [ [ s "a"; s "b" ]; [ s "b"; s "c" ] ]) ]
  in
  check "M \\/ G finite when every father has one son" "true" (finite_eq single unsafe_union)

let e2 () =
  section "E2 (Sec. 1.1): enumeration evaluator = compiled algebra on safe queries";
  List.iter
    (fun (label, f) ->
      let a =
        match Algebra_translate.run ~domain:eq_domain ~state:family_state f with
        | Ok r -> r
        | Error e -> failwith e
      in
      let b =
        match Enumerate.run ~domain:eq_domain ~state:family_state f with
        | Ok (Enumerate.Finite r) -> r
        | _ -> failwith "enumeration failed"
      in
      check (label ^ ": answers agree") "true" (bool_s (Relation.equal a b)))
    [ ("M(x)", m_query); ("G(x,z)", g_query); ("F minus converse", parse "F(x, y) /\\ ~F(y, x)") ]

let e3 () =
  section "E3 (Fact 2.1): a finite, non-domain-independent query over N_<";
  let lub =
    parse "(forall y. R(y) -> y < x) /\\ (forall z. (forall y. R(y) -> y < z) -> x <= z)"
  in
  let natural =
    match Enumerate.run ~domain:presburger ~state:nat_state lub with
    | Ok (Enumerate.Finite r) -> Format.asprintf "%a" Relation.pp r
    | _ -> "failed"
  in
  check "natural answer (outside the active domain)" "{(6)}" natural;
  let active =
    match Algebra_translate.run ~domain:presburger ~state:nat_state lub with
    | Ok r -> Format.asprintf "%a" Relation.pp r
    | Error e -> "err:" ^ e
  in
  check "active-domain answer differs" "{}" active

let e4_e5 () =
  section "E4/E5 (Thms 2.2/2.5): finitization as syntax and as safety test";
  let unsafe = parse "exists y. R(y) /\\ y < x" in
  let fin = Finitization.finitize unsafe in
  check "finitization is recognized" "true" (bool_s (Finitization.is_finitization fin));
  let finite_p f =
    match
      Relative_safety.via_finitization ~domain:presburger ~decide:Presburger.decide
        ~state:nat_state f
    with
    | Ok b -> bool_s b
    | Error e -> "err:" ^ e
  in
  check "unsafe query infinite" "false" (finite_p unsafe);
  check "its finitization finite" "true" (finite_p fin);
  check "R(x) finite" "true" (finite_p (parse "R(x)"));
  check "~R(x) infinite" "false" (finite_p (parse "~R(x)"))

let e6 () =
  section "E6 (Thms 2.6/2.7): the successor domain N'";
  let fin f =
    match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state (parse f) with
    | Ok b -> bool_s b
    | Error e -> "err:" ^ e
  in
  check "R(x)" "true" (fin "R(x)");
  check "~R(x)" "false" (fin "~R(x)");
  check "successors of R" "true" (fin "exists y. R(y) /\\ x = y'");
  check "x != 3" "false" (fin "x != 3");
  let restricted = Ext_active.restrict ~schema:[ ("R", 1) ] (parse "x != 3") in
  match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state restricted with
  | Ok b -> check "Thm 2.7 restriction of x != 3 is finite" "true" (bool_s b)
  | Error e -> check "Thm 2.7 restriction of x != 3 is finite" "true" ("err:" ^ e)

let e7 () =
  section "E7 (Cors 2.3/2.4): arithmetic and the extension combinator";
  (match Arithmetic.decide (parse "exists x y. x * y = y * x /\\ x != y") with
  | Error _ -> check "nonlinear arithmetic refused (undecidable)" "refused" "refused"
  | Ok _ -> check "nonlinear arithmetic refused (undecidable)" "refused" "decided");
  check "arithmetic finitization still syntactic" "true"
    (bool_s (Finitization.is_finitization (Finitization.finitize (parse "exists y. x = y * y"))));
  let module E = Extension.Make (Eq_domain) in
  (match E.decide (parse "forall x. exists y. x < y") with
  | Ok b -> check "extension decides pure order sentences" "true" (bool_s b)
  | Error e -> check "extension decides pure order sentences" "true" ("err:" ^ e));
  match E.decide (parse "exists x y. x < y /\\ x = \"a\"") with
  | Error _ -> check "mixed sentences refused (Cor 3.2 caveat)" "refused" "refused"
  | Ok _ -> check "mixed sentences refused (Cor 3.2 caveat)" "refused" "decided"

let e8 () =
  section "E8 (Sec. 3): the trace predicate P and the word classes";
  let p = Option.get (Trace.trace_word ~machine:scan ~input:"11" ~k:2) in
  check "generated trace satisfies P" "true" (bool_s (Trace.p_pred scan "11" p));
  check "perturbed trace fails P" "false" (bool_s (Trace.p_pred scan "11" (p ^ "1")));
  let counts = Hashtbl.create 4 in
  Word.enumerate () |> Seq.take 2000
  |> Seq.iter (fun w ->
         let c = Classify.to_string (Classify.classify w) in
         Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)));
  row "word classes in the first 2000 words: machine=%d input=%d trace=%d other=%d"
    (Option.value ~default:0 (Hashtbl.find_opt counts "machine"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "input"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "trace"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "other"))

let e9 () =
  section "E9 (Lemma A.2): builder vs the paper's explicit criterion";
  let words = [ "111"; "11-"; "1-1"; "-11" ] in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun v ->
      List.iter
        (fun u ->
          List.iter
            (fun i ->
              List.iter
                (fun j ->
                  incr total;
                  let paper = Builder.paper_criterion ~d:[ (v, i) ] ~e:[ (u, j) ] in
                  let builder =
                    Builder.satisfiable [ Builder.At_least (v, i); Builder.Exactly (u, j) ]
                  in
                  if paper = builder then incr agree)
                [ 1; 2; 3 ])
            [ 1; 2; 3 ])
        words)
    words;
  check "criterion = construction on all small instances" (string_of_int !total)
    (string_of_int !agree)

let e10 () =
  section "E10 (Thm A.3 / Cor A.4): the Reach-theory decision procedure";
  let decide label sentence expected =
    match Traces.decide (parse sentence) with
    | Ok b -> check label (bool_s expected) (bool_s b)
    | Error e -> check label (bool_s expected) ("err:" ^ e)
  in
  decide "exists p. P(scan, 11, p)"
    (Printf.sprintf "exists p. P(\"%s\", \"11\", p)" scan)
    true;
  decide "scan has at most 3 traces on 11"
    (Printf.sprintf
       "forall p1 p2 p3 p4. P(\"%s\", \"11\", p1) /\\ P(\"%s\", \"11\", p2) /\\ P(\"%s\", \"11\", p3) /\\ P(\"%s\", \"11\", p4) -> p1 = p2 \\/ p1 = p3 \\/ p1 = p4 \\/ p2 = p3 \\/ p2 = p4 \\/ p3 = p4"
       scan scan scan scan)
    true;
  decide "the looper exceeds any bound"
    (Printf.sprintf
       "forall p1 p2 p3. P(\"%s\", \"\", p1) /\\ P(\"%s\", \"\", p2) /\\ P(\"%s\", \"\", p3) -> p1 = p2 \\/ p1 = p3 \\/ p2 = p3"
       looper looper looper)
    false;
  decide "a trace determines its machine"
    "exists m n w p. P(m, w, p) /\\ P(n, w, p) /\\ m != n" false

let e11 () =
  section "E11 (Thm 3.1): the diagonalization defeats candidate syntaxes";
  let manual name formulas =
    { Syntax_class.name; description = name;
      accepts = (fun f -> List.exists (Formula.equal f) formulas);
      enumerate = (fun () -> List.to_seq formulas) }
  in
  (match Diagonal.defeat ~syntax:(manual "sound" [ Diagonal.totality_query scan ]) ~budget:4 with
  | Ok (Diagonal.Missed_finite_query _) ->
    check "sound candidate misses a finite query" "missed" "missed"
  | Ok (Diagonal.Admits_unsafe _) ->
    check "sound candidate misses a finite query" "missed" "unsafe"
  | Error e -> check "sound candidate misses a finite query" "missed" ("err:" ^ e));
  match
    Diagonal.defeat
      ~syntax:(manual "unsound" [ Diagonal.totality_query scan; Diagonal.totality_query looper ])
      ~budget:4
  with
  | Ok (Diagonal.Admits_unsafe _) ->
    check "covering candidate admits an unsafe formula" "unsafe" "unsafe"
  | Ok (Diagonal.Missed_finite_query _) ->
    check "covering candidate admits an unsafe formula" "unsafe" "missed"
  | Error e -> check "covering candidate admits an unsafe formula" "unsafe" ("err:" ^ e)

let e12 () =
  section "E12 (Thm 3.3): halting as relative safety over T";
  (match Halting_reduction.check ~fuel:500 ~machine:scan ~input:"11" () with
  | Ok (Halting_reduction.Halts { steps = _; answer }) ->
    check "scan on 11: certified finite answer tuples" "3"
      (string_of_int (Relation.cardinal answer))
  | _ -> check "scan on 11: certified finite answer tuples" "3" "failed");
  match Halting_reduction.check ~fuel:500 ~machine:looper ~input:"1" () with
  | Ok (Halting_reduction.Diverges_beyond { trace_count }) ->
    check "loop on 1: tuples reach the fuel bound" "500" (string_of_int trace_count)
  | _ -> check "loop on 1: tuples reach the fuel bound" "500" "failed"

let e13 () =
  section "E13 (Sec. 1.2): finitely representable relations; finiteness decidable";
  let q = Rat.of_int in
  let interval =
    Crel.make ~columns:[ "x" ]
      [ [ { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "x" };
          { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = C (q 1) } ] ]
  in
  check "open interval infinite" "false" (bool_s (Crel.is_finite interval));
  check "membership of 1/2" "true" (bool_s (Crel.mem interval [ Rat.of_ints 1 2 ]));
  let pts = Crel.of_points ~columns:[ "x" ] [ [ q 1 ]; [ q 2 ] ] in
  check "point set finite" "true" (bool_s (Crel.is_finite pts));
  check "complement closed" "true" (bool_s (Crel.mem (Crel.complement interval) [ q 5 ]));
  let proj =
    Crel.project ~keep:[ "x" ]
      (Crel.make ~columns:[ "x"; "y" ]
         [ [ { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = Crel.V "y" };
             { Crel.lhs = Crel.V "y"; op = Crel.Lt; rhs = C (q 0) } ] ])
  in
  check "projection by dense-order QE" "true" (bool_s (Crel.mem proj [ q (-10) ]))

let e14 () =
  section "E14 (KKR90): FO queries over constraint databases evaluate to Crel";
  let q = Rat.of_int in
  let db : Ceval.db =
    [ ( "I",
        Crel.make ~columns:[ "a" ]
          [ [ { Crel.lhs = C (q 0); op = Crel.Le; rhs = Crel.V "a" };
              { Crel.lhs = Crel.V "a"; op = Crel.Le; rhs = C (q 10) } ] ] ) ]
  in
  (match Ceval.decide ~db (parse "forall x y. x < y -> exists z. x < z /\\ z < y") with
  | Ok b -> check "density decided through Crel" "true" (bool_s b)
  | Error e -> check "density decided through Crel" "true" ("err:" ^ e));
  match Ceval.query ~db (parse "I(x) /\\ ~(x < \"5\")") with
  | Ok r ->
    check "closure: answer is a Crel; finiteness decidable" "false"
      (bool_s (Crel.is_finite r))
  | Error e -> check "closure: answer is a Crel; finiteness decidable" "false" ("err:" ^ e)

let e15 () =
  section "E15 (RANF): adom-free compilation agrees and shrinks plans";
  let schema2 = Schema.make [ ("F", 2); ("S", 1) ] in
  let st =
    State.make ~schema:schema2
      [ ( "F",
          Relation.make ~arity:2
            [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ] ] );
        ("S", Relation.make ~arity:1 [ [ s "cain" ] ]) ]
  in
  let f = parse "exists y. F(x, y) /\\ ~S(y)" in
  match
    (Ranf.run ~domain:eq_domain ~state:st f, Algebra_translate.run ~domain:eq_domain ~state:st f)
  with
  | Ok a, Ok b ->
    check "ranf = adom algebra" "true" (bool_s (Relation.equal a b));
    let lit_weight compile =
      match compile with
      | Error _ -> -1
      | Ok { Algebra_translate.plan; _ } ->
        let rec go = function
          | Relalg.Lit r -> Relation.cardinal r
          | Relalg.Rel _ -> 0
          | Relalg.Select (_, p) | Relalg.Project (_, p) -> go p
          | Relalg.Product (p, q)
          | Relalg.Join (_, p, q)
          | Relalg.Union (p, q)
          | Relalg.Diff (p, q) -> go p + go q
        in
        go plan
    in
    let ranf_w = lit_weight (Ranf.compile ~domain:eq_domain ~state:st f) in
    let adom_w = lit_weight (Algebra_translate.compile ~domain:eq_domain ~state:st f) in
    row "embedded literal tuples: ranf=%d adom=%d (ranf avoids the active domain)" ranf_w
      adom_w;
    check "ranf embeds no adom literal" "0" (string_of_int ranf_w)
  | Error e, _ | _, Error e -> check "ranf = adom algebra" "true" ("err:" ^ e)

let experiments () =
  e1 (); e2 (); e3 (); e4_e5 (); e6 (); e7 (); e8 (); e9 (); e10 (); e11 (); e12 (); e13 ();
  e14 (); e15 ()

(* ------------------------------------------------------------------ *)
(* Parameter sweeps - the "figures"                                    *)
(* ------------------------------------------------------------------ *)

let time_us ~reps f =
  let t0 = Sys.time () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Sys.time () -. t0) *. 1e6 /. float_of_int reps

let chain_state n =
  (* a path graph: F = { (p_i, p_{i+1}) } *)
  let name i = s (Printf.sprintf "p%d" i) in
  State.make ~schema:family_schema
    [ ("F", Relation.make ~arity:2 (List.init n (fun i -> [ name i; name (i + 1) ]))) ]

let sweep_evaluators () =
  section "S1 (figure): evaluator time vs database size - G(x,z) on a path of n edges";
  row "%6s %14s %14s %14s" "n" "enumerate(us)" "adom(us)" "ranf(us)";
  List.iter
    (fun n ->
      let st = chain_state n in
      let enum () =
        Enumerate.run ~fuel:200_000 ~max_certified:(2 * n) ~domain:eq_domain ~state:st g_query
      in
      let adom () = Algebra_translate.run ~domain:eq_domain ~state:st g_query in
      let ranf () = Ranf.run ~domain:eq_domain ~state:st g_query in
      let reps = max 1 (16 / n) in
      row "%6d %14.0f %14.0f %14.0f" n (time_us ~reps enum) (time_us ~reps adom)
        (time_us ~reps ranf))
    [ 2; 4; 8 ]

let sweep_cooper () =
  section "S2 (figure): Cooper QE time vs quantifier depth";
  row "%6s %14s %10s" "depth" "time(us)" "atoms";
  List.iter
    (fun q ->
      let vars = List.init q (fun i -> Printf.sprintf "v%d" i) in
      let chain =
        let rec atoms = function
          | a :: (b :: _ as rest) ->
            Formula.Atom ("<", [ Term.Var a; Term.Var b ]) :: atoms rest
          | _ -> []
        in
        Formula.conj
          (Formula.Atom ("<", [ Term.Const "0"; Term.Var (List.hd vars) ]) :: atoms vars)
      in
      let sentence =
        List.fold_right
          (fun (i, v) acc ->
            if i mod 2 = 1 then Formula.Forall (v, Formula.Imp (chain, acc))
            else Formula.Exists (v, Formula.And (chain, acc)))
          (List.mapi (fun i v -> (i, v)) vars)
          (Formula.Exists ("w", Formula.Atom ("<", [ Term.Var (List.hd vars); Term.Var "w" ])))
      in
      let atoms =
        match Cooper.qe sentence with Ok qf -> Cooper.atom_count qf | Error _ -> -1
      in
      row "%6d %14.0f %10d" q (time_us ~reps:3 (fun () -> Cooper.decide sentence)) atoms)
    [ 1; 2; 3; 4 ]

let sweep_tm () =
  section "S3 (figure): TM simulation time vs input length (scan_right on 1^n)";
  row "%6s %14s %8s" "n" "time(us)" "steps";
  List.iter
    (fun n ->
      let input = String.make n '1' in
      let steps =
        match Run.run ~fuel:(n + 10) Zoo.scan_right input with
        | Run.Halted { steps; _ } -> steps
        | Run.Out_of_fuel -> -1
      in
      row "%6d %14.1f %8d" n
        (time_us ~reps:50 (fun () -> Run.run ~fuel:(n + 10) Zoo.scan_right input))
        steps)
    [ 16; 64; 256; 1024 ]

let sweep_reach () =
  section "S4 (figure): Reach-QE time vs excluded traces (Thm 3.3 completeness checks)";
  row "%6s %14s" "k" "time(us)";
  let all_traces = List.of_seq (Seq.take 8 (Trace.traces ~machine:looper ~input:"1")) in
  List.iter
    (fun k ->
      let excluded = List.filteri (fun i _ -> i < k) all_traces in
      let sentence =
        Reach.Exists
          ( "p",
            Reach.conj
              (Reach.p_formula (Base (Const looper)) (Base (Const "1")) (Base (Var "p"))
              :: List.map
                   (fun t ->
                     Reach.Not (Reach.Atom (Reach.Eq (Base (Var "p"), Base (Const t)))))
                   excluded) )
      in
      row "%6d %14.0f" k (time_us ~reps:5 (fun () -> Reach_qe.decide sentence)))
    [ 0; 2; 4; 6; 8 ]

let sweeps () =
  sweep_evaluators ();
  sweep_cooper ();
  sweep_tm ();
  sweep_reach ()

(* ------------------------------------------------------------------ *)
(* PR 1 ablations: hash-join engine and the decision cache             *)
(* ------------------------------------------------------------------ *)

(* Three binary relations chained on their middle columns:
   R = {(i, i+1)}, S = {(i+1, i+2)}, T = {(i+2, i+3)} for i < n.
   The naive plan executes the equijoins the way the seed engine did —
   materialize the cartesian product, then filter; the optimizer rewrites
   the same plan into two hash joins. *)
let join_schema = Schema.make [ ("R", 2); ("S", 2); ("T", 2) ]

let join_state n =
  let mk off =
    Relation.make ~arity:2 (List.init n (fun i -> [ vi (i + off); vi (i + off + 1) ]))
  in
  State.make ~schema:join_schema [ ("R", mk 0); ("S", mk 1); ("T", mk 2) ]

let naive_join_plan =
  Relalg.(
    Select
      ( Eq (Col 3, Col 4),
        Product (Select (Eq (Col 1, Col 2), Product (Rel "R", Rel "S")), Rel "T") ))

let join_ablation ~n =
  let st = join_state n in
  let optimized = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let naive_res = Relalg.eval ~state:st naive_join_plan in
  let opt_res = Relalg.eval ~state:st optimized in
  let agree = Relation.equal naive_res opt_res in
  let naive_us = time_us ~reps:2 (fun () -> Relalg.eval ~state:st naive_join_plan) in
  let opt_us = time_us ~reps:20 (fun () -> Relalg.eval ~state:st optimized) in
  let joins_in plan =
    let rec go = function
      | Relalg.Rel _ | Relalg.Lit _ -> 0
      | Relalg.Select (_, p) | Relalg.Project (_, p) -> go p
      | Relalg.Join (_, p, q) -> 1 + go p + go q
      | Relalg.Product (p, q) | Relalg.Union (p, q) | Relalg.Diff (p, q) -> go p + go q
    in
    go plan
  in
  ( `Assoc
      [ ("tuples_per_relation", `Int n);
        ("rows_out", `Int (Relation.cardinal opt_res));
        ("agree", `Bool agree);
        ("hash_joins_in_optimized_plan", `Int (joins_in optimized));
        ("naive_us", `Float naive_us);
        ("hashjoin_us", `Float opt_us);
        ("speedup", `Float (naive_us /. opt_us)) ],
    agree,
    naive_us,
    opt_us )

let cache_ablation ~n =
  (* G(x,z) on a path of n edges has n-1 answer tuples; the enumeration
     re-decides the candidate sentence for every active-domain value and
     the bench re-runs the whole evaluation, so a shared cache converts
     repeat decides into hash lookups. *)
  let st = chain_state n in
  let run ?cache () =
    Enumerate.run ~fuel:200_000 ~max_certified:(2 * n) ?cache ~domain:eq_domain ~state:st
      g_query
  in
  let answers =
    match run () with
    | Ok (Enumerate.Finite r) -> Relation.cardinal r
    | _ -> -1
  in
  let uncached_us = time_us ~reps:3 (fun () -> run ()) in
  let cache = Decide_cache.create () in
  let cold_t0 = Sys.time () in
  ignore (run ~cache ());
  let cold_us = (Sys.time () -. cold_t0) *. 1e6 in
  let warm_us = time_us ~reps:3 (fun () -> run ~cache ()) in
  let stats = Decide_cache.stats cache in
  ( `Assoc
      [ ("path_edges", `Int n);
        ("answer_tuples", `Int answers);
        ("uncached_us", `Float uncached_us);
        ("cached_cold_us", `Float cold_us);
        ("cached_warm_us", `Float warm_us);
        ("speedup_warm", `Float (uncached_us /. warm_us));
        ("cache_hits", `Int stats.Decide_cache.hits);
        ("cache_misses", `Int stats.Decide_cache.misses);
        ("cache_entries", `Int stats.Decide_cache.entries) ],
    answers,
    uncached_us,
    warm_us )

(* ------------------------------------------------------------------ *)
(* PR 3 ablation: resource-governor overhead on safe hot paths         *)
(* ------------------------------------------------------------------ *)

(* The governed and plain variants do identical work on these completing
   workloads, so the minimum over individual repetitions is the fair
   estimate of each one's cost: any rep the scheduler or a major GC
   interrupts is discarded, where a mean over a timing window would keep
   the interruption in the estimate. [Sys.time]'s ~10ms granularity is
   far too coarse for sub-millisecond reps, hence the wall clock. *)
let min_rep_us ~reps f =
  let m = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
    if dt < !m then m := dt
  done;
  !m

(* The two variants are timed in alternation, each window preceded by a
   major collection — otherwise whichever variant runs second pays for the
   garbage the first one left behind, and the "overhead" is really GC
   scheduling noise (observed at 20%+ when the ablation runs after the
   allocation-heavy experiment rows). *)
let best_pair ~runs ~reps fa fb =
  let ma = ref infinity and mb = ref infinity in
  for _ = 1 to runs do
    Gc.major ();
    ma := Float.min !ma (min_rep_us ~reps fa);
    Gc.major ();
    mb := Float.min !mb (min_rep_us ~reps fb)
  done;
  (!ma, !mb)

(* A governed run carries every dimension the CLI would install: generous
   fuel plus a far-away deadline (the deadline forces the periodic wall
   clock poll, the part of the governor that costs anything). *)
let full_budget () = Budget.make ~fuel:1_000_000_000 ~timeout_ms:600_000 ()

let governor_ablation () =
  (* 1. the PR 1 chain join through the algebra engine *)
  let n = 1000 in
  let st = join_state n in
  let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let join_plain, join_gov =
    best_pair ~runs:9 ~reps:40
      (fun () -> Relalg.eval ~state:st plan)
      (fun () -> Relalg.eval ~state:st ~budget:(full_budget ()) plan)
  in
  (* 2. warm-cache enumeration (the PR 1 decide-cache hot path) *)
  let stc = chain_state 12 in
  let cache = Decide_cache.create () in
  let enum_legacy () =
    Enumerate.run ~fuel:200_000 ~max_certified:24 ~cache ~domain:eq_domain ~state:stc g_query
  in
  ignore (enum_legacy ());
  let enum_plain, enum_gov =
    best_pair ~runs:9 ~reps:40 enum_legacy (fun () ->
        Enumerate.run_budgeted ~max_certified:24 ~cache ~budget:(full_budget ())
          ~domain:eq_domain ~state:stc g_query)
  in
  (* 3. Cooper quantifier elimination under the ambient budget *)
  let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
  let cooper_plain, cooper_gov =
    best_pair ~runs:9 ~reps:2000
      (fun () -> Cooper.decide cooper_sentence)
      (fun () -> Cooper.decide ~budget:(full_budget ()) cooper_sentence)
  in
  let pct plain gov = 100.0 *. ((gov /. plain) -. 1.0) in
  let entry name plain gov =
    ( name,
      `Assoc
        [ ("plain_us", `Float plain);
          ("governed_us", `Float gov);
          ("overhead_pct", `Float (pct plain gov)) ] )
  in
  let worst =
    List.fold_left Float.max neg_infinity
      [ pct join_plain join_gov; pct enum_plain enum_gov; pct cooper_plain cooper_gov ]
  in
  ( `Assoc
      [ entry "chain_join_n1000" join_plain join_gov;
        entry "enumerate_warm_cache" enum_plain enum_gov;
        entry "cooper_qe" cooper_plain cooper_gov ],
    worst )

(* ------------------------------------------------------------------ *)
(* PR 4 ablation: telemetry overhead on the same hot paths             *)
(* ------------------------------------------------------------------ *)

(* Three variants per workload: telemetry disabled (every instrumentation
   point is one ref read and a branch), the no-op sink (the observation
   path runs but discards events), and a full recording.  The workloads
   are the PR 3 governed hot paths, so the numbers compose: governor
   overhead from A3, telemetry overhead from here. *)
(* One sample = [chunk] back-to-back reps inside a single clock window,
   so the ~1us [gettimeofday] quantum is amortized well below the effect
   size under test (on the ~40us Cooper workload, single-rep timing
   cannot distinguish a 2% effect from one timer quantum). *)
let chunk_us ~chunk f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to chunk do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int chunk

let median a =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.

type triple = {
  t_off : float;
  t_noop : float;
  t_rec : float;
  noop_pct : float;
  rec_pct : float;
}

(* All three variants run the same workload thunk; only the ambient
   collector differs, and it is installed around a multi-repetition chunk
   rather than a single repetition — the ablation measures the cost of
   the instrumentation points in the engines, and the one-time cost of
   building a collector (two hashtables) must stay amortized below the
   effect size under test.  The estimator fights two independent noise
   sources of a virtualized host:

   - CPU steal: the host can take the vCPU for ~1ms inside any single
     timing window, a 10-20%% spike on a ~5ms chunk.  Each round
     interleaves off/noop/recording chunks back to back five times and
     keeps each variant's MINIMUM, discarding the stolen windows.
   - clock drift: the effective clock wanders by several percent over
     timescales of 100ms+, which swamps a sub-2%% effect measured from
     two aggregates taken seconds apart.  The overhead estimate is the
     median over rounds of the PAIRED per-round ratio (noop/off within
     one round, where the chunks ran a few ms apart), so the drift
     cancels inside each ratio.

   Earlier drafts used a global minimum per variant; that compares each
   variant's single luckiest window across the whole run and was observed
   to report the no-op sink "slower" than a full recording — physically
   impossible. *)
let best_triple ~rounds ~chunk f =
  let offs = Array.make rounds 0. in
  let noops = Array.make rounds 0. in
  let recs = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    Gc.major ();
    (* untimed warm-up: the first chunk after a major collection runs in a
       golden GC state (empty minor heap, fresh major cycle) that no later
       chunk sees; without burning it, whichever variant is timed first
       reads 2-3%% faster than the identical thunk in the next slot *)
    ignore (chunk_us ~chunk f);
    let mo = ref infinity and mn = ref infinity and mr = ref infinity in
    for _ = 1 to 5 do
      mo := Float.min !mo (chunk_us ~chunk f);
      mn := Float.min !mn (Telemetry.with_noop (fun () -> chunk_us ~chunk f));
      mr := Float.min !mr (fst (Telemetry.record (fun () -> chunk_us ~chunk f)))
    done;
    offs.(r) <- !mo;
    noops.(r) <- !mn;
    recs.(r) <- !mr
  done;
  let ratio a = median (Array.init rounds (fun r -> a.(r) /. offs.(r))) in
  { t_off = median offs;
    t_noop = median noops;
    t_rec = median recs;
    noop_pct = 100. *. (ratio noops -. 1.);
    rec_pct = 100. *. (ratio recs -. 1.) }

let telemetry_ablation () =
  let n = 1000 in
  let st = join_state n in
  let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let join () = Relalg.eval ~state:st plan in
  let join_t = best_triple ~rounds:15 ~chunk:4 join in
  let stc = chain_state 12 in
  let cache = Decide_cache.create () in
  let enum () =
    Enumerate.run ~fuel:200_000 ~max_certified:24 ~cache ~domain:eq_domain ~state:stc g_query
  in
  ignore (enum ());
  let enum_t = best_triple ~rounds:15 ~chunk:4 enum in
  let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
  let cooper () = Cooper.decide cooper_sentence in
  let cooper_t = best_triple ~rounds:21 ~chunk:100 cooper in
  let entry name t =
    ( name,
      `Assoc
        [ ("disabled_us", `Float t.t_off);
          ("noop_sink_us", `Float t.t_noop);
          ("recording_us", `Float t.t_rec);
          ("noop_overhead_pct", `Float t.noop_pct);
          ("recording_overhead_pct", `Float t.rec_pct) ] )
  in
  let worst_noop =
    List.fold_left Float.max neg_infinity
      [ join_t.noop_pct; enum_t.noop_pct; cooper_t.noop_pct ]
  in
  ( `Assoc
      [ entry "chain_join_n1000" join_t;
        entry "enumerate_warm_cache" enum_t;
        entry "cooper_qe" cooper_t ],
    worst_noop )

(* PR 5 ablation: cost of the resilience machinery on completing hot
   paths.  Three variants of the same workload chunk:

   - plain: the shipped default — fault sites compiled into the engines
     but no plan installed, so every [Fault.hit] is one domain-local
     read; no supervisor in the stack.
   - supervised: every repetition runs through [Supervisor.supervise]
     (the per-job wrapper [fq batch] uses), succeeding on the first
     attempt — measures the span + classification envelope.
   - armed: a chaos plan with [permille = 0] is installed, so every
     fault site takes the full schedule path (mutex, counter, hash)
     without ever firing — the worst case of leaving the harness on.

   The acceptance bound applies to the supervised variant; the armed
   figure is reported so the cost of leaving injection armed in
   production is a measured number rather than a guess. *)
type sup_triple = {
  s_off : float;
  s_sup : float;
  s_armed : float;
  sup_pct : float;
  armed_pct : float;
}

let bench_policy = { Supervisor.default_policy with Supervisor.sleep = (fun _ -> ()) }

let supervised f () =
  let r = Supervisor.supervise ~policy:bench_policy ~name:"bench" (fun _ -> f ()) in
  match r.Supervisor.outcome with
  | Supervisor.Value v -> v
  | Supervisor.Crashed c -> failwith c.Supervisor.reason

let best_sup_triple ~rounds ~chunk f =
  let armed = Fault.chaos ~permille:0 ~seed:0 () in
  let offs = Array.make rounds 0. in
  let sups = Array.make rounds 0. in
  let arms = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    Gc.major ();
    ignore (chunk_us ~chunk f);
    let mo = ref infinity and ms = ref infinity and ma = ref infinity in
    for _ = 1 to 5 do
      mo := Float.min !mo (chunk_us ~chunk f);
      ms := Float.min !ms (chunk_us ~chunk (supervised f));
      ma := Float.min !ma (Fault.with_plan armed (fun () -> chunk_us ~chunk f))
    done;
    offs.(r) <- !mo;
    sups.(r) <- !ms;
    arms.(r) <- !ma
  done;
  let ratio a = median (Array.init rounds (fun r -> a.(r) /. offs.(r))) in
  { s_off = median offs;
    s_sup = median sups;
    s_armed = median arms;
    sup_pct = 100. *. (ratio sups -. 1.);
    armed_pct = 100. *. (ratio arms -. 1.) }

let supervision_ablation () =
  let n = 1000 in
  let st = join_state n in
  let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let join () = Relalg.eval ~state:st plan in
  let join_t = best_sup_triple ~rounds:15 ~chunk:4 join in
  let stc = chain_state 12 in
  let cache = Decide_cache.create () in
  let enum () =
    Enumerate.run ~fuel:200_000 ~max_certified:24 ~cache ~domain:eq_domain ~state:stc g_query
  in
  ignore (enum ());
  let enum_t = best_sup_triple ~rounds:15 ~chunk:4 enum in
  let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
  let cooper () = Cooper.decide cooper_sentence in
  let cooper_t = best_sup_triple ~rounds:21 ~chunk:100 cooper in
  let entry name t =
    ( name,
      `Assoc
        [ ("plain_us", `Float t.s_off);
          ("supervised_us", `Float t.s_sup);
          ("armed_plan_us", `Float t.s_armed);
          ("supervised_overhead_pct", `Float t.sup_pct);
          ("armed_plan_overhead_pct", `Float t.armed_pct) ] )
  in
  let worst sel =
    List.fold_left Float.max neg_infinity (List.map sel [ join_t; enum_t; cooper_t ])
  in
  ( `Assoc
      [ entry "chain_join_n1000" join_t;
        entry "enumerate_warm_cache" enum_t;
        entry "cooper_qe" cooper_t ],
    worst (fun t -> t.sup_pct),
    worst (fun t -> t.armed_pct) )

(* PR 5 correctness half: the batch query set evaluated through the
   supervised 4-way worker pool (shared decide cache, one supervise
   envelope per job, as [fq batch --jobs 4] does) must agree tuple for
   tuple with plain sequential evaluation. *)
let batch_agreement () =
  let order_domain : Domain.t = (module Nat_order) in
  let specs =
    [| (eq_domain, family_state, m_query);
       (eq_domain, family_state, parse "exists y. F(x, y)");
       (eq_domain, family_state, parse "F(\"adam\", x)");
       (order_domain, nat_state, parse "exists y. R(y) /\\ x < y");
       (presburger, nat_state, parse "exists y. R(y) /\\ x + x = y + 1") |]
  in
  let eval cache (d, st, q) =
    match Enumerate.run ~fuel:500_000 ?cache ~domain:d ~state:st q with
    | Ok (Enumerate.Finite r) -> Some r
    | _ -> None
  in
  let seq = Array.map (eval None) specs in
  let cache = Decide_cache.create () in
  let par =
    Supervisor.parallel_map ~jobs:4 (fun spec -> supervised (fun () -> eval (Some cache) spec) ()) specs
  in
  Array.for_all2
    (fun a b ->
      match (a, b) with
      | Some r1, Some r2 -> Relation.equal r1 r2
      | None, None -> true
      | _ -> false)
    seq par

let ablations () =
  section "A1 (PR 1): hash-join engine vs naive product-filter (3-way chain join)";
  row "%6s %14s %14s %10s" "n" "naive(us)" "hashjoin(us)" "speedup";
  List.iter
    (fun n ->
      let _, agree, naive_us, opt_us = join_ablation ~n in
      row "%6d %14.0f %14.0f %9.1fx%s" n naive_us opt_us (naive_us /. opt_us)
        (if agree then "" else "  ** MISMATCH **"))
    [ 100; 1000 ];
  section "A2 (PR 1): Enumerate.run with and without the decide cache";
  row "%6s %8s %14s %14s %10s" "edges" "answers" "uncached(us)" "warm(us)" "speedup";
  List.iter
    (fun n ->
      let _, answers, uncached_us, warm_us = cache_ablation ~n in
      row "%6d %8d %14.0f %14.0f %9.1fx" n answers uncached_us warm_us (uncached_us /. warm_us))
    [ 6; 12 ];
  section "A3 (PR 3): resource-governor overhead on completing hot paths";
  let detail, worst = governor_ablation () in
  (match detail with
  | `Assoc entries ->
    row "%-24s %14s %14s %10s" "path" "plain(us)" "governed(us)" "overhead";
    List.iter
      (fun (name, v) ->
        match v with
        | `Assoc [ (_, `Float plain); (_, `Float gov); (_, `Float pct) ] ->
          row "%-24s %14.1f %14.1f %9.1f%%" name plain gov pct
        | _ -> ())
      entries
  | _ -> ());
  row "worst-case overhead: %.1f%% (acceptance: < 5%%)" worst;
  section "A4 (PR 4): telemetry overhead (disabled / no-op sink / recording)";
  let detail, worst_noop = telemetry_ablation () in
  (match detail with
  | `Assoc entries ->
    row "%-24s %12s %12s %12s %10s" "path" "off(us)" "noop(us)" "record(us)" "noop-ovh";
    List.iter
      (fun (name, v) ->
        match v with
        | `Assoc
            [ (_, `Float off); (_, `Float noop); (_, `Float recd); (_, `Float noop_pct); _ ] ->
          row "%-24s %12.1f %12.1f %12.1f %9.1f%%" name off noop recd noop_pct
        | _ -> ())
      entries
  | _ -> ());
  row "worst-case no-op-sink overhead: %.1f%% (acceptance: < 2%%)" worst_noop;
  section "A5 (PR 5): supervision overhead (plain / supervised / armed fault plan)";
  let detail, worst_sup, worst_armed = supervision_ablation () in
  (match detail with
  | `Assoc entries ->
    row "%-24s %12s %12s %12s %10s" "path" "plain(us)" "superv(us)" "armed(us)" "sup-ovh";
    List.iter
      (fun (name, v) ->
        match v with
        | `Assoc
            [ (_, `Float plain); (_, `Float sup); (_, `Float armed); (_, `Float sup_pct); _ ]
          ->
          row "%-24s %12.1f %12.1f %12.1f %9.1f%%" name plain sup armed sup_pct
        | _ -> ())
      entries
  | _ -> ());
  row "worst-case supervised overhead: %.1f%% (acceptance: <= 2%%); armed plan: %.1f%%"
    worst_sup worst_armed;
  row "4-way supervised batch agrees with sequential: %b" (batch_agreement ())

(* ------------------------------------------------------------------ *)
(* A7: fq serve - snapshot warm start and wire overhead                *)
(* ------------------------------------------------------------------ *)

(* QE-heavy Presburger sentences: each costs a full quantifier
   elimination cold and a hash lookup warm. *)
let serve_qe_sentences =
  List.map parse
    [ "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1";
      "forall x y. x < y -> exists z. x < z /\\ z <= y";
      "forall x. exists y. x < y /\\ exists z. y < z /\\ z = 2 * y";
      "forall x. exists y z. x < y /\\ y < z /\\ z = x + 3";
      "exists x. forall y. x < y \\/ x = y \\/ y < x";
      "forall x y z. x < y /\\ y < z -> x < z";
      "forall x. exists y. y = 3 * x + 1 /\\ x < y";
      "forall x y. exists z. x + y < z /\\ z = 2 * x + 2 * y + 1" ]

let serve_ablation () =
  (* (a) first-query decide cost, cold cache vs snapshot-loaded cache *)
  let decide_pass cache =
    let t0 = Unix.gettimeofday () in
    List.iter (fun f -> ignore (Decide_cache.decide cache presburger f)) serve_qe_sentences;
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let snapshot = Filename.temp_file "fq_bench_snap" ".fq" in
  let seed = Decide_cache.create () in
  ignore (decide_pass seed);
  (match Decide_cache.save seed snapshot with
  | Ok _ -> ()
  | Error e -> failwith ("serve ablation: snapshot save: " ^ e));
  let passes = 5 in
  let cold_total = ref 0.0 and warm_total = ref 0.0 in
  for _ = 1 to passes do
    cold_total := !cold_total +. decide_pass (Decide_cache.create ());
    let warm = Decide_cache.create () in
    (match Decide_cache.load warm snapshot with
    | Ok _ -> ()
    | Error e -> failwith ("serve ablation: snapshot load: " ^ e));
    warm_total := !warm_total +. decide_pass warm
  done;
  Sys.remove snapshot;
  let cold_us = !cold_total /. float_of_int passes in
  let warm_us = !warm_total /. float_of_int passes in
  let warm_speedup = cold_us /. Float.max warm_us 1e-9 in
  (* (b) per-request wire overhead: the same query through a live
     in-process server (socket + JSON + admission + dispatch) vs a
     direct eval_resilient call *)
  let sock = Filename.temp_file "fq_bench_serve" ".sock" in
  Sys.remove sock;
  let addr = Server.Unix_path sock in
  let cfg =
    { (Server.default_config ~state:family_state addr) with
      Server.jobs = 2;
      log = (fun _ -> ()) }
  in
  let server_result = ref (Error "server never returned") in
  let th = Thread.create (fun () -> server_result := Server.run cfg) () in
  let client =
    match Client.connect ~retries:200 ~delay_ms:25 addr with
    | Ok c -> c
    | Error e -> failwith ("serve ablation: " ^ e)
  in
  let formula = "exists y. F(x, y)" in
  let request i =
    match
      Client.request client
        (Protocol.Eval
           { id = string_of_int i; domain = None; formula; fuel = None;
             timeout_ms = None; resume = None; trace = None })
    with
    | Ok (_, Protocol.R_outcome _) -> ()
    | Ok _ -> failwith "serve ablation: unexpected reply"
    | Error e -> failwith ("serve ablation: " ^ e)
  in
  request 0;
  let n = 300 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    request i
  done;
  let serve_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n in
  (match Client.request client (Protocol.Shutdown { id = "bye" }) with
  | Ok _ -> ()
  | Error e -> failwith ("serve ablation: shutdown: " ^ e));
  Client.close client;
  Thread.join th;
  (match !server_result with
  | Ok 0 -> ()
  | Ok c -> failwith (Printf.sprintf "serve ablation: server exited %d" c)
  | Error e -> failwith ("serve ablation: " ^ e));
  let parsed = parse formula in
  let direct () =
    ignore (Query.eval_resilient ~domain:presburger ~state:family_state parsed)
  in
  direct ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    direct ()
  done;
  let direct_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n in
  let detail =
    `Assoc
      [ ("qe_sentences", `Int (List.length serve_qe_sentences));
        ("timing_passes", `Int passes);
        ("cold_first_query_us", `Float cold_us);
        ("warm_first_query_us", `Float warm_us);
        ("warm_start_speedup", `Float warm_speedup);
        ("serve_requests", `Int n);
        ("serve_request_us", `Float serve_us);
        ("direct_eval_us", `Float direct_us);
        ("wire_overhead_us", `Float (serve_us -. direct_us)) ]
  in
  (detail, (warm_speedup, serve_us, direct_us))

(* PR 8: cost of crash-safe journaling on the decide fill path.  Every
   sentence is distinct, so every verdict is a fresh cacheable fill —
   the worst case for the journal hook, which renders the entry and
   appends one CRC-framed record (write syscall, no fsync) per fill.

   The acceptance number is measured at the fill path itself, through
   the production hook wiring (Decide_cache.set_on_insert -> journal
   mutex -> entry_to_line -> Journal.append), on a worker domain: QE +
   cache insert with the hook vs without.  An end-to-end serve
   comparison is reported alongside for context, but a socket round
   trip costs O(100us) of thread/domain scheduling with comparable
   variance, which drowns a ~5us mechanism — it does not gate. *)
let journal_fill_sentences n =
  (* four QE shapes, parametrized to distinct sentences *)
  List.init n (fun i ->
      let k = (i / 4) + 2 in
      match i mod 4 with
      | 0 -> Printf.sprintf "forall x. exists y. x < y /\\ y < x + %d" k
      | 1 -> Printf.sprintf "forall x. exists y. y = %d * x + 1 /\\ x < y" k
      | 2 -> Printf.sprintf "forall x y. x < y -> exists z. x < z /\\ z < y + %d" k
      | _ -> Printf.sprintf "exists x. forall y. x < y \\/ x = y \\/ y < x + %d" k)
  |> List.map parse

let journal_fill_pass ~journal sentences =
  let jstate =
    match journal with
    | false -> None
    | true ->
      let p = Filename.temp_file "fq_bench_fill" ".j" in
      Sys.remove p;
      (match Journal.open_append p with
      | Ok j -> Some (j, p, Mutex.create ())
      | Error e -> failwith ("journal ablation: " ^ e))
  in
  let cache = Decide_cache.create () in
  (match jstate with
  | Some (j, _, lock) ->
    Decide_cache.set_on_insert cache
      (Some
         (fun key value ->
           Mutex.lock lock;
           Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
           match Journal.append j (Decide_cache.entry_to_line key value) with
           | Ok () -> ()
           | Error e -> failwith ("journal ablation: append: " ^ e)))
  | None -> ());
  let us =
    Stdlib.Domain.join
      (Stdlib.Domain.spawn (fun () ->
           let t0 = Unix.gettimeofday () in
           List.iter (fun f -> ignore (Decide_cache.decide cache presburger f)) sentences;
           (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (List.length sentences)))
  in
  (match jstate with
  | Some (j, p, _) ->
    Journal.close j;
    Sys.remove p
  | None -> ());
  us

let journal_ablation () =
  let n = 120 and passes = 6 in
  let sentences = journal_fill_sentences 200 in
  let fill_on = ref infinity and fill_off = ref infinity in
  for p = 1 to passes do
    if p mod 2 = 1 then begin
      fill_off := Float.min !fill_off (journal_fill_pass ~journal:false sentences);
      fill_on := Float.min !fill_on (journal_fill_pass ~journal:true sentences)
    end
    else begin
      fill_on := Float.min !fill_on (journal_fill_pass ~journal:true sentences);
      fill_off := Float.min !fill_off (journal_fill_pass ~journal:false sentences)
    end
  done;
  let fill_overhead_pct = (!fill_on -. !fill_off) /. Float.max !fill_off 1e-9 *. 100.0 in
  let texts =
    Array.init n (fun i ->
        Printf.sprintf "forall x. exists y. x < y /\\ y < x + %d" (i + 2))
  in
  let run_pass ~journal =
    let sock = Filename.temp_file "fq_bench_jserve" ".sock" in
    Sys.remove sock;
    let jpath =
      if journal then begin
        let p = Filename.temp_file "fq_bench_journal" ".j" in
        Sys.remove p;
        Some p
      end
      else None
    in
    let addr = Server.Unix_path sock in
    let cfg =
      { (Server.default_config ~state:family_state addr) with
        Server.jobs = 2;
        journal = jpath;
        log = (fun _ -> ()) }
    in
    let server_result = ref (Error "server never returned") in
    let th = Thread.create (fun () -> server_result := Server.run cfg) () in
    let client =
      match Client.connect ~retries:200 ~delay_ms:25 addr with
      | Ok c -> c
      | Error e -> failwith ("journal ablation: " ^ e)
    in
    let request id text =
      match
        Client.request client
          (Protocol.Eval
             { id; domain = Some "presburger"; formula = text; fuel = None;
               timeout_ms = None; resume = None; trace = None })
      with
      | Ok (_, Protocol.R_outcome _) -> ()
      | Ok _ -> failwith "journal ablation: unexpected reply"
      | Error e -> failwith ("journal ablation: " ^ e)
    in
    request "warm" "forall x. exists y. x < y";
    let t0 = Unix.gettimeofday () in
    Array.iteri (fun i t -> request (string_of_int i) t) texts;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n in
    (match Client.request client (Protocol.Shutdown { id = "bye" }) with
    | Ok _ -> ()
    | Error e -> failwith ("journal ablation: shutdown: " ^ e));
    Client.close client;
    Thread.join th;
    (match !server_result with
    | Ok 0 -> ()
    | Ok c -> failwith (Printf.sprintf "journal ablation: server exited %d" c)
    | Error e -> failwith ("journal ablation: " ^ e));
    (us, jpath)
  in
  (* QE dominates each request (~200us) while the append is ~3us, so the
     delta drowns in scheduler/allocator noise on any single pass: take
     the best pass per configuration (min is the standard robust latency
     estimator), alternating run order so neither side benefits from
     machine warm-up. *)
  let on_best = ref infinity and off_best = ref infinity in
  let recovered = ref 0 and recovery_us = ref 0.0 in
  for p = 1 to passes do
    let measure ~journal =
      let us, jpath = run_pass ~journal in
      (match jpath with
      | None -> ()
      | Some jp ->
        (* no snapshot is configured, so the journal still holds every
           record after the graceful shutdown — replay and time it *)
        let count = ref 0 in
        let t0 = Unix.gettimeofday () in
        (match Journal.recover jp ~f:(fun _ -> incr count) with
        | Ok _ -> ()
        | Error e -> failwith ("journal ablation: recover: " ^ e));
        if p = passes then begin
          recovered := !count;
          recovery_us := (Unix.gettimeofday () -. t0) *. 1e6
        end;
        Sys.remove jp);
      us
    in
    if p mod 2 = 1 then begin
      off_best := Float.min !off_best (measure ~journal:false);
      on_best := Float.min !on_best (measure ~journal:true)
    end
    else begin
      on_best := Float.min !on_best (measure ~journal:true);
      off_best := Float.min !off_best (measure ~journal:false)
    end
  done;
  let off_us = !off_best in
  let on_us = !on_best in
  let e2e_delta_us = on_us -. off_us in
  let detail =
    `Assoc
      [ ("fill_sentences", `Int (List.length sentences));
        ("timing_passes", `Int passes);
        ("fill_us_journal_off", `Float !fill_off);
        ("fill_us_journal_on", `Float !fill_on);
        ("fill_overhead_pct", `Float fill_overhead_pct);
        ("e2e_requests", `Int n);
        ("e2e_request_us_journal_off", `Float off_us);
        ("e2e_request_us_journal_on", `Float on_us);
        ("e2e_delta_us", `Float e2e_delta_us);
        ("records_recovered", `Int !recovered);
        ("recovery_total_us", `Float !recovery_us);
        ( "recovery_us_per_record",
          `Float (!recovery_us /. Float.max (float_of_int !recovered) 1.0) ) ]
  in
  (detail, (fill_overhead_pct, !recovered))

(* ------------------------------------------------------------------ *)
(* Machine-readable output (-- json)                                   *)
(* ------------------------------------------------------------------ *)

(* minimal JSON printer — no external dependency *)
let rec print_json fmt = function
  | `Null -> Format.fprintf fmt "null"
  | `Bool b -> Format.fprintf fmt "%b" b
  | `Int n -> Format.fprintf fmt "%d" n
  | `Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf fmt "%.0f" f
    else Format.fprintf fmt "%.3f" f
  | `String s -> Format.fprintf fmt "%S" s
  | `List items ->
    Format.fprintf fmt "@[<hv 2>[";
    List.iteri
      (fun i item ->
        if i > 0 then Format.fprintf fmt ",@ ";
        print_json fmt item)
      items;
    Format.fprintf fmt "]@]"
  | `Assoc fields ->
    Format.fprintf fmt "@[<hv 2>{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Format.fprintf fmt ",@ ";
        Format.fprintf fmt "%S: %a" k print_json v)
      fields;
    Format.fprintf fmt "}@]"

let json_report () =
  let join_json, join_agree, join_naive, join_opt = join_ablation ~n:1000 in
  let cache_json, cache_answers, cache_uncached, cache_warm = cache_ablation ~n:12 in
  let doc =
    `Assoc
      [ ("pr", `Int 1);
        ("description", `String "hash-join execution engine + plan optimizer + decide cache");
        ("join_ablation", join_json);
        ("decide_cache_ablation", cache_json);
        ( "acceptance",
          `Assoc
            [ ("join_agree", `Bool join_agree);
              ("join_speedup_ge_5x", `Bool (join_naive >= 5.0 *. join_opt));
              ("cache_answers_ge_8", `Bool (cache_answers >= 8));
              ("cache_speedup_gt_1x", `Bool (cache_uncached > cache_warm)) ] ) ]
  in
  Format.printf "%a@." print_json doc

let json_report_pr3 () =
  let detail, worst = governor_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 3);
        ( "description",
          `String
            "unified resource governor: budgeted execution, structured failure, graceful \
             degradation" );
        ("governor_overhead", detail);
        ( "acceptance",
          `Assoc
            [ ("worst_overhead_pct", `Float worst);
              ("overhead_lt_5pct", `Bool (worst < 5.0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

(* ------------------------------------------------------------------ *)
(* PR 9: request tracing + always-on metrics pipeline                  *)
(* ------------------------------------------------------------------ *)

(* Per-request cost of the observability plane on the serving path: an
   in-process server answers the same sequential request stream with
   head-sampled tracing off (trace_sample = 0, the always-on labeled
   aggregation still running — it has no off switch by design) and with
   1-in-8 sampling.  Arms alternate across passes and each arm keeps its
   minimum, so scheduler noise cancels instead of accumulating. *)
let observability_serve_pass ~trace_sample n =
  let sock = Filename.temp_file "fq_bench_obs" ".sock" in
  Sys.remove sock;
  let addr = Server.Unix_path sock in
  let cfg =
    { (Server.default_config ~state:family_state addr) with
      Server.jobs = 2;
      trace_sample;
      log = (fun _ -> ()) }
  in
  let server_result = ref (Error "server never returned") in
  let th = Thread.create (fun () -> server_result := Server.run cfg) () in
  let client =
    match Client.connect ~retries:200 ~delay_ms:25 addr with
    | Ok c -> c
    | Error e -> failwith ("observability ablation: " ^ e)
  in
  let formula = "exists y. F(x, y)" in
  let request i =
    match
      Client.request client
        (Protocol.Eval
           { id = string_of_int i; domain = None; formula; fuel = None;
             timeout_ms = None; resume = None; trace = None })
    with
    | Ok (_, Protocol.R_outcome _) -> ()
    | Ok _ -> failwith "observability ablation: unexpected reply"
    | Error e -> failwith ("observability ablation: " ^ e)
  in
  (* warm the worker domains, the decide cache and the socket path *)
  for i = 0 to 24 do
    request i
  done;
  (* time in chunks and keep the best chunk: one descheduling event then
     poisons a chunk, not the whole pass *)
  let chunk = 50 in
  let best = ref infinity in
  for c = 0 to (n / chunk) - 1 do
    let t0 = Unix.gettimeofday () in
    for i = 0 to chunk - 1 do
      request (100 + (c * chunk) + i)
    done;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int chunk in
    if us < !best then best := us
  done;
  let us = !best in
  (match Client.request client (Protocol.Shutdown { id = "bye" }) with
  | Ok _ -> ()
  | Error e -> failwith ("observability ablation: shutdown: " ^ e));
  Client.close client;
  Thread.join th;
  (match !server_result with
  | Ok 0 -> ()
  | Ok c -> failwith (Printf.sprintf "observability ablation: server exited %d" c)
  | Error e -> failwith ("observability ablation: " ^ e));
  us

let tracing_ablation () =
  let n = 500 and passes = 5 in
  let plain = ref infinity and traced = ref infinity in
  for _ = 1 to passes do
    plain := Float.min !plain (observability_serve_pass ~trace_sample:0 n);
    traced := Float.min !traced (observability_serve_pass ~trace_sample:8 n)
  done;
  let overhead_pct = 100. *. (!traced -. !plain) /. !plain in
  ( `Assoc
      [ ("serve_requests_per_pass", `Int n);
        ("timing_passes", `Int passes);
        ("trace_sample", `Int 8);
        ("plain_request_us", `Float !plain);
        ("traced_request_us", `Float !traced);
        ("sampled_tracing_overhead_pct", `Float overhead_pct) ],
    overhead_pct )

let json_report_pr4 () =
  let detail, worst_noop = telemetry_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 4);
        ( "description",
          `String
            "telemetry: hierarchical spans, counters, histograms with pluggable sinks; \
             overhead of the disabled path vs the no-op sink vs a full recording on the \
             governed hot paths" );
        ("telemetry_overhead", detail);
        ( "acceptance",
          `Assoc
            [ ("worst_noop_overhead_pct", `Float worst_noop);
              ("noop_overhead_lt_2pct", `Bool (worst_noop < 2.0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

let json_report_pr5 () =
  let detail, worst_sup, worst_armed = supervision_ablation () in
  let agree = batch_agreement () in
  let doc =
    `Assoc
      [ ("pr", `Int 5);
        ( "description",
          `String
            "fault injection + supervised parallel batch: overhead of the per-job \
             supervise envelope and of an armed-but-silent chaos plan on the governed \
             hot paths, plus agreement of the supervised 4-way worker pool with \
             sequential evaluation" );
        ("supervision_overhead", detail);
        ( "acceptance",
          `Assoc
            [ ("parallel_batch_agrees", `Bool agree);
              ("worst_supervised_overhead_pct", `Float worst_sup);
              ("worst_armed_plan_overhead_pct", `Float worst_armed);
              ("supervised_overhead_le_2pct", `Bool (worst_sup <= 2.0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

let json_report_pr7 () =
  let detail, (warm_speedup, serve_us, direct_us) = serve_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 7);
        ( "description",
          `String
            "fq serve: decide-cache snapshot warm start (first-query QE cost, cold vs \
             snapshot-loaded) and per-request wire overhead of the NDJSON daemon vs a \
             direct eval_resilient call on the same state" );
        ("serve_ablation", detail);
        ( "acceptance",
          `Assoc
            [ ("warm_start_speedup", `Float warm_speedup);
              ("warm_start_speedup_ge_5x", `Bool (warm_speedup >= 5.0));
              ("serve_request_us", `Float serve_us);
              ("direct_eval_us", `Float direct_us) ] ) ]
  in
  Format.printf "%a@." print_json doc

let json_report_pr8 () =
  let detail, (overhead_pct, recovered) = journal_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 8);
        ( "description",
          `String
            "crash-safe serving: overhead of the decide-cache journal hook on the fill \
             path (QE + cache insert + CRC-framed append per fresh verdict, through the \
             production set_on_insert wiring, on a worker domain) vs the same fills \
             unjournaled; an end-to-end serve comparison and a full recovery replay of \
             the journal a serve run produced are reported for context" );
        ("journal_ablation", detail);
        ( "acceptance",
          `Assoc
            [ ("fill_overhead_pct", `Float overhead_pct);
              ("fill_overhead_le_5pct", `Bool (overhead_pct <= 5.0));
              ("records_recovered", `Int recovered);
              ("recovery_complete", `Bool (recovered > 0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

let json_report_pr9 () =
  let tel_detail, worst_noop = telemetry_ablation () in
  let trace_detail, trace_pct = tracing_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 9);
        ( "description",
          `String
            "end-to-end request tracing and the always-on metrics pipeline: the PR 4 \
             telemetry ablation re-run on top of the labeled Aggregate registry and \
             histogram key-space LRU (the one-ref-read disabled-path discipline must \
             survive them), and per-request cost of a live server with 1-in-8 \
             head-sampled tracing vs sampling off (alternating passes, min per arm)" );
        ("telemetry_overhead", tel_detail);
        ("tracing_ablation", trace_detail);
        ( "acceptance",
          `Assoc
            [ ("worst_noop_overhead_pct", `Float worst_noop);
              ("noop_overhead_lt_2pct", `Bool (worst_noop < 2.0));
              ("sampled_tracing_overhead_pct", `Float trace_pct);
              ("sampled_tracing_overhead_le_5pct", `Bool (trace_pct <= 5.0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

(* ------------------------------------------------------------------ *)
(* PR 10: multi-process fleet vs a single in-process serve             *)
(* ------------------------------------------------------------------ *)

(* Per-request cost of a supervised fleet worker vs a single [fq serve]
   daemon on the same sequential request stream.  Both arms fork their
   server: that is how both are actually deployed (an in-process serve
   thread shares the client's address space and measures ~2us/request
   faster than any real daemon), and it is the only shape the fleet arm
   tolerates — OCaml 5 refuses Unix.fork once any domain exists in this
   process, which booting Server.run in-process would do.  Each server
   boots once and stays up for the whole ablation; the two clients then
   alternate short timing passes (identical warm-up + chunked loop,
   best 50-request chunk per pass, min across passes) so a load spike
   lands on both arms instead of biasing whichever arm owned that
   stretch of wall clock. *)
let fleet_request_stream client n =
  let request i =
    match
      Client.request client
        (Protocol.Eval
           { id = string_of_int i; domain = None; formula = "exists y. F(x, y)";
             fuel = None; timeout_ms = None; resume = None; trace = None })
    with
    | Ok (_, Protocol.R_outcome _) -> ()
    | Ok _ -> failwith "fleet ablation: unexpected reply"
    | Error e -> failwith ("fleet ablation: " ^ e)
  in
  for i = 0 to 24 do
    request i
  done;
  let chunk = 50 in
  let best = ref infinity in
  for c = 0 to (n / chunk) - 1 do
    let t0 = Unix.gettimeofday () in
    for i = 0 to chunk - 1 do
      request (100 + (c * chunk) + i)
    done;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int chunk in
    if us < !best then best := us
  done;
  !best

let with_fleet_worker_client k =
  let sock = Filename.temp_file "fq_bench_fleet" ".sock" in
  Sys.remove sock;
  let addr = Server.Unix_path sock in
  let serve = Server.default_config ~state:family_state addr in
  let cfg =
    { (Fleet.default_config { serve with Server.jobs = 2; log = (fun _ -> ()) }) with
      Fleet.workers = 2;
      (* the probes stay on (the supervision plane is part of what is
         being measured) but are made load-proof: under `dune build`
         every BENCH rule runs at once, and a starved worker that
         merely answers slowly must not be health-killed mid-pass *)
      probe_timeout_ms = 5_000;
      probe_failures = 1_000 }
  in
  let result = ref (Error "fleet never returned") in
  let th = Thread.create (fun () -> result := Fleet.run cfg) () in
  (* discover a worker through the control socket, then talk to it
     directly — the per-request path a spread batch client takes *)
  let worker =
    match Client.discover ~retries:200 ~delay_ms:25 addr with
    | Ok (true, w :: _) -> w
    | Ok _ -> failwith "fleet ablation: no workers discovered"
    | Error e -> failwith ("fleet ablation: discover: " ^ e)
  in
  let client =
    match Client.connect ~retries:200 ~delay_ms:25 worker with
    | Ok c -> c
    | Error e -> failwith ("fleet ablation: worker connect: " ^ e)
  in
  let r = k client in
  Client.close client;
  (match Client.connect ~retries:50 ~delay_ms:25 addr with
  | Ok c ->
    (match Client.request c (Protocol.Shutdown { id = "bye" }) with
    | Ok _ -> ()
    | Error e -> failwith ("fleet ablation: shutdown: " ^ e));
    Client.close c
  | Error e -> failwith ("fleet ablation: shutdown connect: " ^ e));
  Thread.join th;
  (match !result with
  | Ok 0 -> ()
  | Ok c -> failwith (Printf.sprintf "fleet ablation: fleet exited %d" c)
  | Error e -> failwith ("fleet ablation: " ^ e));
  r

let with_lone_serve_client k =
  let sock = Filename.temp_file "fq_bench_lone" ".sock" in
  Sys.remove sock;
  let addr = Server.Unix_path sock in
  let cfg =
    { (Server.default_config ~state:family_state addr) with
      Server.jobs = 2;
      log = (fun _ -> ()) }
  in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then Unix._exit (match Server.run cfg with Ok c -> c | Error _ -> 3);
  let client =
    match Client.connect ~retries:200 ~delay_ms:25 addr with
    | Ok c -> c
    | Error e -> failwith ("fleet ablation: serve connect: " ^ e)
  in
  let r = k client in
  (match Client.request client (Protocol.Shutdown { id = "bye" }) with
  | Ok _ -> ()
  | Error e -> failwith ("fleet ablation: serve shutdown: " ^ e));
  Client.close client;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "fleet ablation: serve exited abnormally");
  r

let fleet_ablation () =
  let n = 500 and passes = 9 in
  (* the fleet boots first: its supervisor forks, and fork must precede
     any domain in this process (neither server runs in-process, so no
     domain ever appears here) *)
  with_fleet_worker_client @@ fun fleet_client ->
  with_lone_serve_client @@ fun serve_client ->
  let fleet = ref infinity and serve = ref infinity in
  for _ = 1 to passes do
    fleet := Float.min !fleet (fleet_request_stream fleet_client n);
    serve := Float.min !serve (fleet_request_stream serve_client n)
  done;
  let overhead_pct = 100. *. (!fleet -. !serve) /. !serve in
  ( `Assoc
      [ ("requests_per_pass", `Int n);
        ("timing_passes", `Int passes);
        ("fleet_workers", `Int 2);
        ("fleet_request_us", `Float !fleet);
        ("single_serve_request_us", `Float !serve);
        ("fleet_overhead_pct", `Float overhead_pct) ],
    overhead_pct )

let json_report_pr10 () =
  let detail, overhead_pct = fleet_ablation () in
  let doc =
    `Assoc
      [ ("pr", `Int 10);
        ( "description",
          `String
            "fq fleet: per-request cost of a forked, supervised fleet worker \
             (discovered via fleet-status, own listener and journal, read-only shared \
             snapshot) vs a single forked fq serve process on the same sequential \
             request stream; the supervision plane (probes, reaping, control socket) \
             runs throughout the fleet arm, and the arms alternate passes" );
        ("fleet_ablation", detail);
        ( "acceptance",
          `Assoc
            [ ("fleet_overhead_pct", `Float overhead_pct);
              ("fleet_overhead_le_5pct", `Bool (overhead_pct <= 5.0)) ] ) ]
  in
  Format.printf "%a@." print_json doc

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_tests =
  let input64 = String.make 64 '1' in
  let long_input = String.make 24 '1' in
  let long_trace = Option.get (Trace.trace_word ~machine:scan ~input:long_input ~k:24) in
  let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
  let order_sentence = parse "forall x y. x < y -> exists z. x < z /\\ z <= y" in
  let succ_sentence = parse "forall x y. x' = y' -> x = y" in
  let reach_sentence =
    Result.get_ok
      (Reach.of_formula (parse (Printf.sprintf "exists p. P(\"%s\", \"11\", p)" scan)))
  in
  let lemma_constraints =
    [ Builder.At_least ("111", 3); Builder.Exactly ("11-", 2); Builder.Exactly ("-11", 1) ]
  in
  let q = Rat.of_int in
  let crel_square =
    Crel.make ~columns:[ "x"; "y" ]
      [ [ { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "x" };
          { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = C (q 10) };
          { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "y" };
          { Crel.lhs = Crel.V "y"; op = Crel.Lt; rhs = Crel.V "x" } ] ]
  in
  let big_a = Bigint.of_string "123456789012345678901234567890" in
  let big_b = Bigint.of_string "987654321098765432109876543210" in
  [ Test.make ~name:"tm/simulate-64"
      (Staged.stage (fun () -> Run.run ~fuel:1_000 Zoo.scan_right input64));
    Test.make ~name:"tm/trace-validate"
      (Staged.stage (fun () -> Trace.p_pred scan long_input long_trace));
    Test.make ~name:"tm/lemma-a2-builder"
      (Staged.stage (fun () -> Builder.satisfiable lemma_constraints));
    Test.make ~name:"qe/cooper" (Staged.stage (fun () -> Cooper.decide cooper_sentence));
    Test.make ~name:"qe/presburger-relativized"
      (Staged.stage (fun () -> Presburger.decide cooper_sentence));
    Test.make ~name:"qe/nat-order-dedicated"
      (Staged.stage (fun () -> Nat_order.decide order_sentence));
    Test.make ~name:"qe/nat-order-via-cooper"
      (Staged.stage (fun () -> Presburger.decide order_sentence));
    Test.make ~name:"qe/nat-succ-dedicated"
      (Staged.stage (fun () -> Nat_succ.decide succ_sentence));
    Test.make ~name:"qe/nat-succ-via-cooper"
      (Staged.stage (fun () -> Presburger.decide succ_sentence));
    Test.make ~name:"reach/decide-exists-trace"
      (Staged.stage (fun () -> Reach_qe.decide reach_sentence));
    Test.make ~name:"eval/enumerate-M(x)"
      (Staged.stage (fun () -> Enumerate.run ~domain:eq_domain ~state:family_state m_query));
    Test.make ~name:"eval/algebra-M(x)"
      (Staged.stage (fun () ->
           Algebra_translate.run ~domain:eq_domain ~state:family_state m_query));
    Test.make ~name:"relsafe/finitization"
      (Staged.stage (fun () ->
           Relative_safety.via_finitization ~domain:presburger ~decide:Presburger.decide
             ~state:nat_state (parse "exists y. R(y) /\\ x < y")));
    Test.make ~name:"relsafe/ext-active"
      (Staged.stage (fun () ->
           Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state (parse "R(x)")));
    Test.make ~name:"constraintdb/complement+project"
      (Staged.stage (fun () -> Crel.project ~keep:[ "y" ] (Crel.complement crel_square)));
    Test.make ~name:"bigint/lcm" (Staged.stage (fun () -> Bigint.lcm big_a big_b)) ]

let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let instance = Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Format.printf "@.== Microbenchmarks (ns/run, monotonic clock) ==@.";
  List.iter
    (fun test ->
      let measurements = Benchmark.all cfg [ instance ] test in
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) measurements []
      |> List.sort compare
      |> List.iter (fun (name, measurement) ->
             let result = Analyze.one ols instance measurement in
             match Analyze.OLS.estimates result with
             | Some [ e ] -> Format.printf "  %-36s %12.0f@." name e
             | _ -> Format.printf "  %-36s            ?@." name))
    bench_tests

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match mode with
  | "json" -> json_report ()
  | "json-pr3" -> json_report_pr3 ()
  | "json-pr4" -> json_report_pr4 ()
  | "json-pr5" -> json_report_pr5 ()
  | "json-pr7" -> json_report_pr7 ()
  | "json-pr8" -> json_report_pr8 ()
  | "json-pr9" -> json_report_pr9 ()
  | "json-pr10" -> json_report_pr10 ()
  | _ ->
    let quick = mode = "quick" in
    Format.printf
      "Finite Queries - experiment harness (E1-E15), sweeps and microbenchmarks@.";
    experiments ();
    ablations ();
    if not quick then begin
      sweeps ();
      run_benchmarks ()
    end;
    Format.printf "@.done.@."
