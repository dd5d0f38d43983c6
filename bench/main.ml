(* Experiment harness.

   The paper has no numeric tables or figures (it is a pure theory paper),
   so the "evaluation" this harness regenerates is the experiment index of
   DESIGN.md / EXPERIMENTS.md: one section per paper claim (E1-E15),
   printing the same verification rows every run, then the overhead
   ablations A1-A5, parameter sweeps and Bechamel microbenchmarks of every
   computational component.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- quick   (experiments + ablations)

   Exits 1 if any correctness row prints ** MISMATCH **.  The timing
   acceptance lines of A3-A5 are informational. *)

open Finite_queries

let parse = Parser.formula_exn
let s = Value.str
let vi = Value.int

let section title = Format.printf "@.== %s ==@." title
let row fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* Correctness rows end in [verdict]; the harness exits 1 if any failed. *)
let mismatches = ref 0

let verdict ok =
  if ok then "OK"
  else begin
    incr mismatches;
    "** MISMATCH **"
  end

let check label expected actual =
  row "%-58s expected=%-9s observed=%-9s %s" label expected actual (verdict (expected = actual))

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
(* Experiments E1-E15                                                  *)
(* ------------------------------------------------------------------ *)

let finite_eq state f =
  match Relative_safety.via_active_domain ~state f with
  | Ok b -> bool_s b
  | Error e -> "err:" ^ e

let e1 () =
  section "E1 (Sec. 1): the intro's queries over the father/son database";
  let enumerate f =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
      ~state:family_state f
  in
  (match enumerate m_query with
  | Ok (Enumerate.Complete r) ->
    check "M(x) answer cardinality" "1" (string_of_int (Relation.cardinal r))
  | _ -> check "M(x) answer cardinality" "1" "failed");
  (match enumerate g_query with
  | Ok (Enumerate.Complete r) ->
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
        match
          Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
            ~state:family_state f
        with
        | Ok (Enumerate.Complete r) -> r
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
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:presburger
        ~state:nat_state lub
    with
    | Ok (Enumerate.Complete r) -> Format.asprintf "%a" Relation.pp r
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
  (match Halting_reduction.check ~budget:(Budget.of_fuel 500) ~machine:scan ~input:"11" with
  | Ok (Halting_reduction.Halts { steps = _; answer }) ->
    check "scan on 11: certified finite answer tuples" "3"
      (string_of_int (Relation.cardinal answer))
  | _ -> check "scan on 11: certified finite answer tuples" "3" "failed");
  match Halting_reduction.check ~budget:(Budget.of_fuel 500) ~machine:looper ~input:"1" with
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
        Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 200_000)
          ~max_certified:(2 * n) ~domain:eq_domain ~state:st g_query
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
(* Overhead ablations A1-A5                                            *)
(* ------------------------------------------------------------------ *)

(* Three binary relations chained on their middle columns:
   R = {(i, i+1)}, S = {(i+1, i+2)}, T = {(i+2, i+3)} for i < n.
   The naive plan executes the equijoins as a cartesian product followed
   by a filter; the optimizer rewrites the same plan into two hash
   joins. *)
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

(* (answers agree, naive us, hash-join us) *)
let join_ablation ~n =
  let st = join_state n in
  let optimized = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let agree =
    Relation.equal (Relalg.eval ~state:st naive_join_plan) (Relalg.eval ~state:st optimized)
  in
  let naive_us = time_us ~reps:2 (fun () -> Relalg.eval ~state:st naive_join_plan) in
  let opt_us = time_us ~reps:20 (fun () -> Relalg.eval ~state:st optimized) in
  (agree, naive_us, opt_us)

(* (answer tuples, uncached us, warm-cache us) *)
let cache_ablation ~n =
  (* G(x,z) on a path of n edges has n-1 answer tuples; the enumeration
     re-decides the candidate sentence for every active-domain value and
     the bench re-runs the whole evaluation, so a shared cache converts
     repeat decides into hash lookups. *)
  let st = chain_state n in
  let run domain () =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 200_000)
      ~max_certified:(2 * n) ~domain ~state:st g_query
  in
  let answers =
    match run eq_domain () with
    | Ok (Enumerate.Complete r) -> Relation.cardinal r
    | _ -> -1
  in
  let uncached_us = time_us ~reps:3 (run eq_domain) in
  let cached = Decide_cache.domain (Decide_cache.create ()) eq_domain in
  ignore (run cached ());
  let warm_us = time_us ~reps:3 (run cached) in
  (answers, uncached_us, warm_us)

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

let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1"

(* [(path, plain us, governed us)] *)
let governor_ablation () =
  (* 1. the A1 chain join through the algebra engine *)
  let st = join_state 1000 in
  let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let join_plain, join_gov =
    best_pair ~runs:9 ~reps:40
      (fun () -> Relalg.eval ~state:st plan)
      (fun () -> Budget.guard (full_budget ()) (fun () -> Relalg.eval ~state:st plan))
  in
  (* 2. warm-cache enumeration (the A2 decide-cache hot path) *)
  let stc = chain_state 12 in
  let cached = Decide_cache.domain (Decide_cache.create ()) eq_domain in
  let enum_unshared () =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 200_000) ~max_certified:24
      ~domain:cached ~state:stc g_query
  in
  ignore (enum_unshared ());
  let enum_plain, enum_gov =
    best_pair ~runs:9 ~reps:40 enum_unshared (fun () ->
        Enumerate.run_budgeted ~max_certified:24 ~budget:(full_budget ()) ~domain:cached
          ~state:stc g_query)
  in
  (* 3. Cooper quantifier elimination under the ambient budget *)
  let cooper_plain, cooper_gov =
    best_pair ~runs:9 ~reps:2000
      (fun () -> Cooper.decide cooper_sentence)
      (fun () ->
        Budget.protect ~budget:(full_budget ()) (fun () -> Cooper.decide cooper_sentence))
  in
  [ ("chain_join_n1000", join_plain, join_gov);
    ("enumerate_warm_cache", enum_plain, enum_gov);
    ("cooper_qe", cooper_plain, cooper_gov) ]

(* The telemetry and supervision ablations time the governed hot paths
   of A3, so the numbers compose: [(path, rounds, chunk, workload)]. *)
let hot_paths () =
  let st = join_state 1000 in
  let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let stc = chain_state 12 in
  let cached = Decide_cache.domain (Decide_cache.create ()) eq_domain in
  let enum () =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 200_000) ~max_certified:24
      ~domain:cached ~state:stc g_query
  in
  ignore (enum ());
  [ ("chain_join_n1000", 15, 4, fun () -> ignore (Relalg.eval ~state:st plan));
    ("enumerate_warm_cache", 15, 4, fun () -> ignore (enum ()));
    ("cooper_qe", 21, 100, fun () -> ignore (Cooper.decide cooper_sentence)) ]

(* Three variants per workload: telemetry disabled (every instrumentation
   point is one ref read and a branch), the no-op sink (the observation
   path runs but discards events), and a full recording. *)
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
    noop_pct = 100. *. (ratio noops -. 1.) }

let telemetry_ablation () =
  List.map
    (fun (name, rounds, chunk, f) -> (name, best_triple ~rounds ~chunk f))
    (hot_paths ())

(* Cost of the resilience machinery on completing hot paths.  Three
   variants of the same workload chunk:

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
  List.map
    (fun (name, rounds, chunk, f) -> (name, best_sup_triple ~rounds ~chunk f))
    (hot_paths ())

(* The batch query set evaluated through the supervised 4-way worker
   pool (shared decide cache, one supervise envelope per job, as
   [fq batch --jobs 4] does) must agree tuple for tuple with plain
   sequential evaluation. *)
let batch_agreement () =
  let order_domain : Domain.t = (module Nat_order) in
  let specs =
    [| (eq_domain, family_state, m_query);
       (eq_domain, family_state, parse "exists y. F(x, y)");
       (eq_domain, family_state, parse "F(\"adam\", x)");
       (order_domain, nat_state, parse "exists y. R(y) /\\ x < y");
       (presburger, nat_state, parse "exists y. R(y) /\\ x + x = y + 1") |]
  in
  let eval (d, st, q) =
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 500_000) ~domain:d ~state:st q
    with
    | Ok (Enumerate.Complete r) -> Some r
    | _ -> None
  in
  let seq = Array.map eval specs in
  let cache = Decide_cache.create () in
  let par =
    Supervisor.parallel_map ~jobs:4
      (fun (d, st, q) -> supervised (fun () -> eval (Decide_cache.domain cache d, st, q)) ())
      specs
  in
  Array.for_all2
    (fun a b ->
      match (a, b) with
      | Some r1, Some r2 -> Relation.equal r1 r2
      | None, None -> true
      | _ -> false)
    seq par

(* Timing acceptance lines are informational: shared runners are too
   noisy for a percent-level bound to gate.  Correctness rows count. *)
let worst sel rows = List.fold_left (fun m r -> Float.max m (sel r)) neg_infinity rows

let ablations () =
  section "A1: hash-join engine vs naive product-filter (3-way chain join)";
  row "%6s %14s %14s %10s" "n" "naive(us)" "hashjoin(us)" "speedup";
  List.iter
    (fun n ->
      let agree, naive_us, opt_us = join_ablation ~n in
      row "%6d %14.0f %14.0f %9.1fx  %s" n naive_us opt_us (naive_us /. opt_us)
        (verdict agree))
    [ 100; 1000 ];
  section "A2: Enumerate.run_budgeted with and without the decide cache";
  row "%6s %8s %14s %14s %10s" "edges" "answers" "uncached(us)" "warm(us)" "speedup";
  List.iter
    (fun n ->
      let answers, uncached_us, warm_us = cache_ablation ~n in
      row "%6d %8d %14.0f %14.0f %9.1fx  %s" n answers uncached_us warm_us
        (uncached_us /. warm_us)
        (verdict (answers = n - 1)))
    [ 6; 12 ];
  section "A3: resource-governor overhead on completing hot paths";
  let pct (_, plain, gov) = 100.0 *. ((gov /. plain) -. 1.0) in
  let gov = governor_ablation () in
  row "%-24s %14s %14s %10s" "path" "plain(us)" "governed(us)" "overhead";
  List.iter
    (fun ((name, plain, governed) as r) ->
      row "%-24s %14.1f %14.1f %9.1f%%" name plain governed (pct r))
    gov;
  row "worst-case overhead: %.1f%% (acceptance: < 5%%)" (worst pct gov);
  section "A4: telemetry overhead (disabled / no-op sink / recording)";
  let tel = telemetry_ablation () in
  row "%-24s %12s %12s %12s %10s" "path" "off(us)" "noop(us)" "record(us)" "noop-ovh";
  List.iter
    (fun (name, t) ->
      row "%-24s %12.1f %12.1f %12.1f %9.1f%%" name t.t_off t.t_noop t.t_rec t.noop_pct)
    tel;
  row "worst-case no-op-sink overhead: %.1f%% (acceptance: < 2%%)"
    (worst (fun (_, t) -> t.noop_pct) tel);
  section "A5: supervision overhead (plain / supervised / armed fault plan)";
  let sup = supervision_ablation () in
  row "%-24s %12s %12s %12s %10s" "path" "plain(us)" "superv(us)" "armed(us)" "sup-ovh";
  List.iter
    (fun (name, t) ->
      row "%-24s %12.1f %12.1f %12.1f %9.1f%%" name t.s_off t.s_sup t.s_armed t.sup_pct)
    sup;
  row "worst-case supervised overhead: %.1f%% (acceptance: <= 2%%); armed plan: %.1f%%"
    (worst (fun (_, t) -> t.sup_pct) sup)
    (worst (fun (_, t) -> t.armed_pct) sup);
  check "4-way supervised batch agrees with sequential" "true" (bool_s (batch_agreement ()))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_tests =
  let input64 = String.make 64 '1' in
  let long_input = String.make 24 '1' in
  let long_trace = Option.get (Trace.trace_word ~machine:scan ~input:long_input ~k:24) in
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
      (Staged.stage (fun () ->
           Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
             ~state:family_state m_query));
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
  let quick = Array.length Sys.argv > 1 && Sys.argv.(1) = "quick" in
  Format.printf "Finite Queries - experiment harness (E1-E15), sweeps and microbenchmarks@.";
  experiments ();
  ablations ();
  if not quick then begin
    sweeps ();
    run_benchmarks ()
  end;
  if !mismatches > 0 then begin
    Format.printf "@.%d mismatch(es).@." !mismatches;
    exit 1
  end;
  Format.printf "@.done.@."
