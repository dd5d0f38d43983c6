(* Tests for Fq_core.Telemetry: span trees, counters, histograms, the
   budget-attribution invariants, and — the property that licenses
   instrumenting engines freely — that evaluation results are identical
   whether telemetry is off, a no-op sink is installed, or a recording is
   in progress. *)

open Fq_db
module Budget = Fq_core.Budget
module Telemetry = Fq_core.Telemetry
module Formula = Fq_logic.Formula
module Term = Fq_logic.Term
module Query = Fq_eval.Query
module Outcome = Fq_eval.Outcome
module Enumerate = Fq_eval.Enumerate
module Decide_cache = Fq_domain.Decide_cache

let parse = Fq_logic.Parser.formula_exn
let s = Value.str

let schema = Schema.make [ ("F", 2) ]

let family_state =
  State.make ~schema
    [ ( "F",
        Relation.make ~arity:2
          [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
            [ s "enoch"; s "irad" ] ] ) ]

let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)

(* --------------------------- span mechanics ------------------------- *)

let test_disabled_is_transparent () =
  Alcotest.(check bool) "disabled outside any recording" false (Telemetry.enabled ());
  (* instrumentation points are inert no-ops *)
  Telemetry.count "nope";
  Telemetry.observe "nope" 1.0;
  Telemetry.set_attr "nope" (Telemetry.Int 1);
  let v = Telemetry.with_span "nope" (fun () -> 42) in
  Alcotest.(check int) "with_span returns the thunk's value" 42 v

let test_record_tree () =
  let v, r =
    Telemetry.record (fun () ->
        Telemetry.with_span "outer" (fun () ->
            Telemetry.set_attr "k" (Telemetry.Str "v");
            Telemetry.with_span "inner" (fun () -> Telemetry.count "c");
            Telemetry.with_span "inner" (fun () -> Telemetry.count ~n:2 "c");
            Telemetry.observe "h" 3.0;
            Telemetry.observe "h" 5.0;
            "done"))
  in
  Alcotest.(check string) "value" "done" v;
  Alcotest.(check int) "one root" 1 (List.length r.Telemetry.roots);
  let root = List.hd r.Telemetry.roots in
  Alcotest.(check string) "root name" "outer" root.Telemetry.name;
  Alcotest.(check int) "two children" 2 (List.length root.Telemetry.children);
  Alcotest.(check bool) "attr recorded" true
    (List.mem_assoc "k" root.Telemetry.attrs);
  Alcotest.(check (list (pair string int))) "counters" [ ("c", 3) ] r.Telemetry.counters;
  (match r.Telemetry.histograms with
  | [ ("h", h) ] ->
    Alcotest.(check int) "histo count" 2 h.Telemetry.count;
    Alcotest.(check (float 1e-9)) "histo sum" 8.0 h.Telemetry.sum;
    Alcotest.(check (float 1e-9)) "histo min" 3.0 h.Telemetry.min;
    Alcotest.(check (float 1e-9)) "histo max" 5.0 h.Telemetry.max
  | _ -> Alcotest.fail "expected exactly the histogram h");
  Alcotest.(check int) "nothing dropped" 0 r.Telemetry.dropped_spans;
  Alcotest.(check bool) "collector uninstalled after record" false (Telemetry.enabled ())

let test_exception_safety () =
  let exception Boom in
  let report = ref None in
  (try
     ignore
       (Telemetry.record (fun () ->
            Telemetry.with_span "root" (fun () ->
                Telemetry.with_span "child" (fun () -> raise Boom))))
   with Boom -> ());
  (* the collector must be gone even though record's thunk raised *)
  Alcotest.(check bool) "collector uninstalled after raise" false (Telemetry.enabled ());
  (* spans close on the exception path: a sibling recording still works *)
  let (), r = Telemetry.record (fun () -> Telemetry.with_span "ok" (fun () -> ())) in
  report := Some r;
  match !report with
  | Some r -> Alcotest.(check int) "clean follow-up recording" 1 (List.length r.Telemetry.roots)
  | None -> Alcotest.fail "no report"

let test_noop_sink () =
  let v =
    Telemetry.with_noop (fun () ->
        Alcotest.(check bool) "enabled under the no-op sink" true (Telemetry.enabled ());
        Telemetry.count "c";
        Telemetry.with_span "sp" (fun () -> 7))
  in
  Alcotest.(check int) "value passes through" 7 v;
  Alcotest.(check bool) "uninstalled after" false (Telemetry.enabled ())

let test_max_spans_cap () =
  let (), r =
    Telemetry.record (fun () ->
        for _ = 1 to 20_010 do
          Telemetry.with_span "s" (fun () -> ())
        done)
  in
  Alcotest.(check int) "kept up to the cap" 20_000 (List.length r.Telemetry.roots);
  Alcotest.(check int) "rest tallied as dropped" 10 r.Telemetry.dropped_spans

(* ------------------------- budget attribution ----------------------- *)

(* Fuel ticks recorded on the root span are exactly the ticks the budget
   itself accounts, and self-ticks telescope: summed over the attribution
   table they reproduce the total. *)
let test_attribution_sums () =
  let f = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  let budget = Budget.make ~fuel:100_000 () in
  let rep, r =
    Telemetry.record (fun () ->
        Query.eval_resilient ~budget ~domain:eq_domain ~state:family_state f)
  in
  let usage = rep.Outcome.usage in
  Alcotest.(check bool) "the run ticked at all" true (usage.Budget.ticks > 0);
  Alcotest.(check int) "root span ticks = budget usage"
    usage.Budget.ticks (Telemetry.total_ticks r);
  let attributed = List.fold_left (fun acc (_, t) -> acc + t) 0 (Telemetry.attribution r) in
  Alcotest.(check int) "self-ticks sum to the total" (Telemetry.total_ticks r) attributed

(* The enumeration tier attributes its fuel the same way. *)
let test_attribution_enumerate_tier () =
  let f = parse "exists y. F(x, y) /\\ F(y, x)" in
  (* not safe-range?  it is — force enumeration with an unguarded variable *)
  let unsafe = parse "~F(x, y)" in
  let budget = Budget.make ~fuel:64 () in
  let rep, r =
    Telemetry.record (fun () ->
        Query.eval_resilient ~budget ~domain:eq_domain ~state:family_state unsafe)
  in
  ignore f;
  Alcotest.(check int) "root span ticks = budget usage"
    rep.Outcome.usage.Budget.ticks (Telemetry.total_ticks r);
  let names = List.map fst (Telemetry.attribution r) in
  Alcotest.(check bool) "enumeration shows up in the attribution" true
    (List.mem "enumerate.scan" names || List.mem "tier:enumerate" names)

(* ------------------------ cache counter parity ---------------------- *)

let test_cache_counters_match_stats () =
  let cache = Decide_cache.create () in
  let f = parse "exists y. F(x, y) /\\ F(y, x)" in
  let run () =
    Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 100_000)
      ~max_certified:16 ~domain:(Decide_cache.domain cache eq_domain)
      ~state:family_state f
  in
  let _, r =
    Telemetry.record (fun () ->
        ignore (run ());
        ignore (run ()))
  in
  let stats = Decide_cache.stats cache in
  let counter name =
    match List.assoc_opt name r.Telemetry.counters with Some n -> n | None -> 0
  in
  Alcotest.(check int) "telemetry hits = stats hits" stats.Decide_cache.hits
    (counter "decide_cache.hits");
  Alcotest.(check int) "telemetry misses = stats misses" stats.Decide_cache.misses
    (counter "decide_cache.misses");
  Alcotest.(check bool) "second run hit the cache" true (stats.Decide_cache.hits > 0);
  let rate = Decide_cache.hit_rate stats in
  Alcotest.(check bool) "hit rate within [0,1]" true (rate >= 0.0 && rate <= 1.0);
  Alcotest.(check (float 1e-9)) "hit rate consistent"
    (float_of_int stats.Decide_cache.hits
    /. float_of_int (stats.Decide_cache.hits + stats.Decide_cache.misses))
    rate

let test_hit_rate_empty () =
  Alcotest.(check (float 1e-9)) "no lookups -> 0" 0.0
    (Decide_cache.hit_rate { Decide_cache.hits = 0; misses = 0; entries = 0; evictions = 0 })

(* --------------------- observation is pure (QCheck) ------------------ *)

(* Random queries over the family database, spanning all three tiers of
   the degradation chain (safe-range, compiled-but-unsafe, enumerated). *)
let gen_query : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let atom =
    oneof
      [ map2 (fun a b -> Formula.Atom ("F", [ Term.Var a; Term.Var b ])) var var;
        map (fun a -> Formula.Atom ("F", [ Term.Var a; Term.Const "\"adam\"" ])) var;
        map2 (fun a b -> Formula.Eq (Term.Var a, Term.Var b)) var var;
        map (fun a -> Formula.Eq (Term.Var a, Term.Const "\"cain\"")) var ]
  in
  let rec go n =
    if n = 0 then atom
    else
      frequency
        [ (3, atom);
          (2, map2 (fun a b -> Formula.And (a, b)) (go (n - 1)) (go (n - 1)));
          (2, map2 (fun a b -> Formula.Or (a, b)) (go (n - 1)) (go (n - 1)));
          (1, map (fun a -> Formula.Not a) (go (n - 1)));
          (2, map2 (fun v a -> Formula.Exists (v, a)) var (go (n - 1))) ]
  in
  go 3

let arb_query = QCheck.make ~print:Formula.to_string gen_query

let verdict_eq a b =
  match (a, b) with
  | Outcome.Complete { answer = ra; tier = ta }, Outcome.Complete { answer = rb; tier = tb } ->
    ta = tb && Relation.equal ra rb
  | ( Outcome.Partial { tuples = ra; reason = fa; resume = sa },
      Outcome.Partial { tuples = rb; reason = fb; resume = sb } ) ->
    fa = fb && Relation.equal ra rb && sa.Outcome.seen = sb.Outcome.seen
  | Outcome.Failed { reason = ra }, Outcome.Failed { reason = rb } -> ra = rb
  | _ -> false

let eval_with_fuel f =
  let budget = Budget.make ~fuel:2_000 () in
  (Query.eval_resilient ~budget ~domain:eq_domain ~state:family_state f).Outcome.verdict

let prop_observation_is_pure =
  QCheck.Test.make ~name:"eval identical with telemetry off / noop / recording" ~count:150
    arb_query (fun f ->
      let off = eval_with_fuel f in
      let noop = Telemetry.with_noop (fun () -> eval_with_fuel f) in
      let recorded, _ = Telemetry.record (fun () -> eval_with_fuel f) in
      verdict_eq off noop && verdict_eq off recorded)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_observation_is_pure ]

let () =
  Alcotest.run "fq_telemetry"
    [ ( "spans",
        [ Alcotest.test_case "disabled is transparent" `Quick test_disabled_is_transparent;
          Alcotest.test_case "record builds the tree" `Quick test_record_tree;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "no-op sink" `Quick test_noop_sink;
          Alcotest.test_case "max_spans cap" `Quick test_max_spans_cap ] );
      ( "attribution",
        [ Alcotest.test_case "sums to budget usage" `Quick test_attribution_sums;
          Alcotest.test_case "enumerate tier attributed" `Quick
            test_attribution_enumerate_tier ] );
      ( "decide-cache",
        [ Alcotest.test_case "counters mirror stats" `Quick test_cache_counters_match_stats;
          Alcotest.test_case "hit rate on empty stats" `Quick test_hit_rate_empty ] );
      ("purity", qcheck_cases) ]
