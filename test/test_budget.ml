(* Tests for the unified resource governor (Fq_core.Budget) and its
   integration with the evaluators: structured failures, the ambient
   budget, the degradation chain of Fq_eval.Query, resume tokens, and the
   monotonicity of budgeted enumeration.

   The paper's Theorems 3.1/3.3 are why the governor exists: finiteness
   of a query is undecidable in general, so an evaluator that accepts
   arbitrary queries can only ever promise "a complete answer or a
   structured account of why it stopped". *)

module Budget = Fq_core.Budget
module Telemetry = Fq_core.Telemetry
module Fault = Fq_core.Fault
module Formula = Fq_logic.Formula
module Relation = Fq_db.Relation
module Value = Fq_db.Value
module State = Fq_db.State
module Schema = Fq_db.Schema
module Enumerate = Fq_eval.Enumerate
module Query = Fq_eval.Query
module Outcome = Fq_eval.Outcome

let parse = Fq_logic.Parser.formula_exn

let failure =
  Alcotest.testable Budget.pp_failure (fun a b ->
      match (a, b) with
      | Budget.Oversize n, Budget.Oversize m -> n = m
      | Budget.Unsupported a, Budget.Unsupported b -> a = b
      | a, b -> a = b)

let rel = Alcotest.testable Relation.pp Relation.equal

(* ------------------------------ core -------------------------------- *)

let test_fuel () =
  let b = Budget.of_fuel 5 in
  for _ = 1 to 5 do
    Budget.tick b
  done;
  Alcotest.(check int) "five ticks spent" 5 (Budget.spent b);
  Alcotest.check failure "sixth tick trips"
    Budget.Fuel_exhausted
    (match Budget.tick b with
    | () -> Alcotest.fail "tick beyond the fuel limit did not trip"
    | exception Budget.Exhausted f -> f)

let test_charge () =
  let b = Budget.make ~fuel:10 () in
  Budget.charge b 10;
  (match Budget.charge b 1 with
  | () -> Alcotest.fail "charge beyond the fuel limit did not trip"
  | exception Budget.Exhausted Budget.Fuel_exhausted -> ())

let test_deadline () =
  let b = Budget.make ~timeout_ms:0 () in
  let r =
    Budget.guard b (fun () ->
        (* the wall clock is polled every 256 ticks *)
        for _ = 1 to 10_000 do
          Budget.tick b
        done)
  in
  Alcotest.(check (result unit failure)) "deadline trips" (Error Budget.Deadline_exceeded) r

let test_cancel () =
  let polled = ref 0 in
  let b =
    Budget.make
      ~cancel:(fun () ->
        incr polled;
        !polled > 2)
      ()
  in
  let r =
    Budget.guard b (fun () ->
        for _ = 1 to 100_000 do
          Budget.tick b
        done)
  in
  Alcotest.(check (result unit failure)) "cancellation trips" (Error Budget.Cancelled) r

let test_unlimited () =
  let b = Budget.make () in
  for _ = 1 to 100_000 do
    Budget.tick b
  done;
  Alcotest.(check int) "ticks still counted" 100_000 (Budget.spent b)

let test_error_string_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (option failure))
        (Budget.error_string f) (Some f)
        (Budget.failure_of_string (Budget.error_string f)))
    [ Budget.Fuel_exhausted; Budget.Deadline_exceeded; Budget.Oversize 7; Budget.Cancelled;
      Budget.Unsupported "Cooper: too big" ];
  Alcotest.(check (option failure)) "ordinary errors stay unstructured" None
    (Budget.failure_of_string "parse error: unexpected token")

let test_ambient_scoping () =
  (* Budget.t holds closures, so compare physically *)
  let installed b = match Budget.ambient () with Some x -> x == b | None -> false in
  Alcotest.(check bool) "no ambient outside guard" true (Budget.ambient () = None);
  (* tick_ambient with no budget installed is a no-op *)
  Budget.tick_ambient ();
  let b1 = Budget.make ~fuel:1_000 () in
  let b2 = Budget.make ~fuel:1_000 () in
  let r =
    Budget.guard b1 (fun () ->
        Alcotest.(check bool) "b1 installed" true (installed b1);
        let inner =
          Budget.guard b2 (fun () ->
              Alcotest.(check bool) "b2 shadows" true (installed b2))
        in
        Alcotest.(check (result unit failure)) "inner fine" (Ok ()) inner;
        Alcotest.(check bool) "b1 restored" true (installed b1))
  in
  Alcotest.(check (result unit failure)) "outer fine" (Ok ()) r;
  Alcotest.(check bool) "slot cleared" true (Budget.ambient () = None);
  (* a ~share:false budget is never installed: only its owner spends it *)
  let unshared = Budget.of_fuel ~share:false 10 in
  let r =
    Budget.guard unshared (fun () ->
        Alcotest.(check bool) "unshared budget not ambient" true (Budget.ambient () = None))
  in
  Alcotest.(check (result unit failure)) "unshared guard fine" (Ok ()) r

(* Threads of one domain share [Domain.DLS], yet each must see only the
   budget, collector and fault plan it installed itself: [fq serve] runs
   its worker seats as threads of one domain on one CPU, and a seat can
   be switched out mid-evaluation.  A baton forces the interleaving in
   which a shared slot goes wrong: A installs its state, B installs its
   own over it, A works and leaves, then B works and leaves. *)
let test_ambient_per_thread () =
  let m = Mutex.create () and cv = Condition.create () and turn = ref 0 in
  let await n = Mutex.protect m (fun () -> while !turn <> n do Condition.wait cv m done) in
  let pass n = Mutex.protect m (fun () -> turn := n; Condition.broadcast cv) in
  let installed b = match Budget.ambient () with Some x -> x == b | None -> false in
  let ba = Budget.make ~fuel:3 () and bb = Budget.make ~fuel:1_000 () in
  let a_own = ref false in
  let run_a () =
    let r, report =
      Telemetry.record (fun () ->
          Fault.with_plan (Fault.plan ~seed:0 ()) (fun () ->
              Budget.guard ba (fun () ->
                  Telemetry.with_span "a" (fun () ->
                      pass 1;
                      await 2;
                      a_own := installed ba && Fault.enabled ();
                      for _ = 1 to 10 do
                        Budget.tick_ambient ()
                      done))))
    in
    pass 3;
    (r, report)
  in
  let run_b () =
    await 1;
    let r, report =
      Telemetry.record (fun () ->
          Budget.guard bb (fun () ->
              Telemetry.with_span "b" (fun () ->
                  pass 2;
                  await 3;
                  let own = installed bb && not (Fault.enabled ()) in
                  for _ = 1 to 5 do
                    Budget.tick_ambient ()
                  done;
                  own)))
    in
    (r, report)
  in
  let spawn f =
    let out = ref None in
    let t = Thread.create (fun () -> out := Some (f ())) () in
    fun () -> Thread.join t; Option.get !out
  in
  let join_a = spawn run_a and join_b = spawn run_b in
  let ra, rep_a = join_a () and rb, rep_b = join_b () in
  let spans (r : Telemetry.report) =
    List.map (fun (s : Telemetry.span) -> (s.Telemetry.name, s.Telemetry.ticks)) r.Telemetry.roots
  in
  Alcotest.(check bool) "A saw its own budget and plan" true !a_own;
  Alcotest.(check (result unit failure)) "A tripped its own fuel" (Error Budget.Fuel_exhausted) ra;
  Alcotest.(check int) "A charged only its own budget" 4 (Budget.spent ba);
  Alcotest.(check (list (pair string int))) "A's collector holds A's span and ticks" [ ("a", 4) ]
    (spans rep_a);
  Alcotest.(check (result bool failure)) "B saw its own budget, and no plan" (Ok true) rb;
  Alcotest.(check int) "B charged only its own budget" 5 (Budget.spent bb);
  Alcotest.(check (list (pair string int))) "B's collector holds B's span and ticks" [ ("b", 5) ]
    (spans rep_b);
  Alcotest.(check bool) "main thread has no ambient budget" true (Budget.ambient () = None)

let test_protect () =
  let b = Budget.of_fuel 3 in
  let r =
    Budget.protect ~budget:b (fun () ->
        for _ = 1 to 10 do
          Budget.tick_ambient ()
        done;
        Ok ())
  in
  Alcotest.(check (result unit string)) "stable error string"
    (Error "budget: fuel exhausted") r

(* ----------------------- states and domains ------------------------- *)

let nat_state =
  State.make
    ~schema:(Schema.make [ ("R", 1) ])
    [ ("R", Relation.make ~arity:1 [ [ Value.int 1 ] ]) ]

let nat_order : Fq_domain.Domain.t = (module Fq_domain.Nat_order)
let presburger : Fq_domain.Domain.t = (module Fq_domain.Presburger)
let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)

let family_state =
  let s = Value.str in
  State.make
    ~schema:(Schema.make [ ("F", 2) ])
    [ ( "F",
        Relation.make ~arity:2
          [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ] ] ) ]

(* ------------------------- unsafe queries --------------------------- *)

(* ¬R(x) has an infinite answer over any infinite domain: the governed
   evaluator must always come back with Partial, whatever the budget. *)
let test_unsafe_always_partial () =
  let f = parse "~R(x)" in
  List.iter
    (fun (domain, fuel) ->
      let budget = Budget.make ~fuel () in
      let report = Query.eval_resilient ~budget ~domain ~state:nat_state f in
      match report.Outcome.verdict with
      | Outcome.Partial { reason = (Budget.Fuel_exhausted | Budget.Oversize _); _ } ->
        (* small budgets run out of fuel; larger ones hit the certification
           cap — either way the scan stops with a structured partial *)
        ()
      | Outcome.Partial { reason; _ } ->
        Alcotest.failf "unexpected trip: %s" (Budget.error_string reason)
      | Outcome.Complete _ -> Alcotest.fail "an infinite answer cannot be complete"
      | Outcome.Failed { reason } -> Alcotest.failf "hard failure: %s" reason)
    [ (nat_order, 5); (nat_order, 500); (presburger, 5); (presburger, 500) ]

let test_unsafe_deadline () =
  let f = parse "~R(x)" in
  let budget = Budget.make ~timeout_ms:0 () in
  let report =
    Query.eval_resilient ~budget ~max_certified:1_000_000 ~domain:presburger ~state:nat_state f
  in
  match report.Outcome.verdict with
  | Outcome.Partial { reason = Budget.Deadline_exceeded; _ } -> ()
  | Outcome.Partial { reason; _ } ->
    Alcotest.failf "expected a deadline trip, got %s" (Budget.error_string reason)
  | _ -> Alcotest.fail "expected Partial under an expired deadline"

(* --------------------- guarded = unguarded -------------------------- *)

let test_guarded_matches_unguarded_decide () =
  List.iter
    (fun s ->
      let f = parse s in
      let plain = Fq_domain.Presburger.decide f in
      let guarded =
        Budget.protect
          ~budget:(Budget.make ~fuel:1_000_000 ())
          (fun () -> Fq_domain.Presburger.decide f)
      in
      Alcotest.(check (result bool string)) s plain guarded)
    [ "forall x. exists y. x < y"; "exists x. x + x = 7"; "exists x. 4 | x /\\ 6 | x";
      "forall x. exists y. y = x + 3 /\\ x < y" ]

let test_guarded_matches_unguarded_eval () =
  let f = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  let unshared =
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
        ~state:family_state f
    with
    | Ok (Enumerate.Complete r) -> r
    | Ok (Enumerate.Partial _) -> Alcotest.fail "unshared run should complete"
    | Error e -> Alcotest.fail e
  in
  let budgeted =
    let budget = Budget.make ~fuel:100_000 ~timeout_ms:60_000 () in
    match Query.eval_resilient ~budget ~domain:eq_domain ~state:family_state f with
    | { Outcome.verdict = Outcome.Complete { answer; _ }; _ } -> answer
    | { Outcome.verdict = Outcome.Partial _; _ } -> Alcotest.fail "budgeted run should complete"
    | { Outcome.verdict = Outcome.Failed { reason }; _ } -> Alcotest.fail reason
  in
  Alcotest.check rel "same answer with and without the governor" unshared budgeted

let test_enumeration_shared_matches_unshared () =
  (* not safe-range, answer finite: x < y bounded by R's members {1} *)
  let f = parse "exists y. R(y) /\\ x < y" in
  let unshared =
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:nat_order
        ~state:nat_state f
    with
    | Ok (Enumerate.Complete r) -> r
    | Ok (Enumerate.Partial _) -> Alcotest.fail "unshared enumeration should complete"
    | Error e -> Alcotest.fail e
  in
  let budgeted =
    match
      Enumerate.run_budgeted ~budget:(Budget.make ~fuel:1_000_000 ()) ~domain:nat_order
        ~state:nat_state f
    with
    | Ok (Enumerate.Complete r) -> r
    | Ok (Enumerate.Partial _) -> Alcotest.fail "budgeted enumeration should complete"
    | Error e -> Alcotest.fail e
  in
  Alcotest.check rel "same certified answer" unshared budgeted

(* -------------------------- degradation chain ----------------------- *)

let test_tiers () =
  (* safe-range: answered by the RANF compiler, no enumeration *)
  let f = parse "exists y. F(x, y)" in
  (match Query.eval_resilient ~domain:eq_domain ~state:family_state f with
  | { Outcome.verdict = Outcome.Complete { tier; _ }; attempts; _ } ->
    Alcotest.(check string) "compiled tier answers" "ranf-algebra" tier;
    Alcotest.(check int) "no earlier attempts" 0 (List.length attempts)
  | _ -> Alcotest.fail "safe-range query should complete");
  (* not safe-range: the chain records why compilation was skipped *)
  let g = parse "~R(x)" in
  match
    Query.eval_resilient ~budget:(Budget.make ~fuel:10 ()) ~domain:nat_order ~state:nat_state g
  with
  | { Outcome.verdict = Outcome.Partial _; attempts = [ (tier, why) ]; _ } ->
    Alcotest.(check string) "ranf tier was skipped" "ranf-algebra" tier;
    Alcotest.(check bool) "reason mentions safe-range" true
      (String.length why >= 14 && String.sub why 0 14 = "not safe-range")
  | _ -> Alcotest.fail "expected Partial with one recorded attempt"

let test_resume_token () =
  (* Two answers (cain, abel), so certification cannot succeed on the first
     candidate.  The whole governed scan costs ~40 ticks, so a 24-tick
     per-round budget is guaranteed to interrupt at least once — but it must
     stay above the cost of the dearest single decide (the QE engines tick
     the ambient budget), or a round could trip without advancing the
     scan. *)
  let f = parse "F(\"adam\", x)" in
  let expected =
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
        ~state:family_state f
    with
    | Ok (Enumerate.Complete r) -> r
    | _ -> Alcotest.fail "one-shot run should complete"
  in
  (* drip-feed the scan one candidate at a time, carrying the token *)
  let rec go seen found rounds =
    if rounds > 500 then Alcotest.fail "resume loop did not converge"
    else
      let budget = Budget.make ~fuel:24 () in
      match
        Enumerate.run_budgeted ~resume:(seen, found) ~budget ~domain:eq_domain
          ~state:family_state f
      with
      | Ok (Enumerate.Complete r) -> (r, rounds)
      | Ok (Enumerate.Partial { tuples; seen; _ }) -> go seen tuples (rounds + 1)
      | Error e -> Alcotest.fail e
  in
  let answer, rounds = go 0 (Relation.empty ~arity:1) 0 in
  Alcotest.check rel "resumed scan converges to the one-shot answer" expected answer;
  Alcotest.(check bool) "the budget actually interrupted the scan" true (rounds > 0)

let test_resume_via_query () =
  let f = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)" in
  (* The satisfiability and certification sentences for this query are
     large, so each governed decide is costlier than in the bare-token test
     above: the per-round budget must cover the dearest single decide, and
     the shared cache amortises the decides that repeat across rounds. *)
  let cache = Fq_domain.Decide_cache.create () in
  let rec go resume rounds =
    if rounds > 500 then Alcotest.fail "resume loop did not converge"
    else
      let budget = Budget.make ~fuel:256 () in
      let report =
        Query.eval_resilient ~budget ~cache ?resume ~domain:eq_domain ~state:family_state f
      in
      match report.Outcome.verdict with
      | Outcome.Complete { answer; _ } -> answer
      | Outcome.Partial { resume = token; _ } -> go (Some token) (rounds + 1)
      | Outcome.Failed { reason } -> Alcotest.fail reason
  in
  let seed = Some { Outcome.seen = 0; found = Relation.empty ~arity:1 } in
  let answer = go seed 0 in
  Alcotest.check rel "resumable front-end converges"
    (Relation.make ~arity:1 [ [ Value.str "adam" ] ])
    answer

(* Satellite of the fault harness (see test_fault.ml for the full chaos
   property): a scan killed mid-flight by an {e injected} deadline — not a
   real clock, so the kill point is exact and reproducible — hands back a
   resume token that finishes to the same relation as an undisturbed run. *)
let test_resume_after_injected_deadline () =
  let module Fault = Fq_core.Fault in
  let f = parse "F(\"adam\", x)" in
  let expected =
    match
      Enumerate.run_budgeted ~budget:(Budget.of_fuel ~share:false 10_000) ~domain:eq_domain
        ~state:family_state f
    with
    | Ok (Enumerate.Complete r) -> r
    | _ -> Alcotest.fail "clean run should complete"
  in
  let plan =
    Fault.plan
      ~rules:
        [ Fault.At
            { site = "enumerate.scan"; hits = [ 2 ];
              action = Fault.Trip Budget.Deadline_exceeded } ]
      ~seed:0 ()
  in
  let first =
    Fault.with_plan plan (fun () ->
        Enumerate.run_budgeted ~budget:(Budget.make ()) ~domain:eq_domain ~state:family_state f)
  in
  match first with
  | Ok (Enumerate.Partial { tuples; seen; reason = Budget.Deadline_exceeded }) ->
    Alcotest.(check int) "killed at the second candidate" 1 seen;
    (match
       Enumerate.run_budgeted ~resume:(seen, tuples) ~budget:(Budget.make ()) ~domain:eq_domain
         ~state:family_state f
     with
    | Ok (Enumerate.Complete r) -> Alcotest.check rel "resumed run equals the clean one" expected r
    | _ -> Alcotest.fail "resumed run should complete")
  | Ok (Enumerate.Partial { reason; _ }) ->
    Alcotest.failf "wrong trip: %s" (Budget.error_string reason)
  | _ -> Alcotest.fail "the injected deadline should interrupt the scan"

(* --------------------------- monotonicity --------------------------- *)

let tuples_of verdict =
  match verdict with
  | Outcome.Complete { answer; _ } -> answer
  | Outcome.Partial { tuples; _ } -> tuples
  | Outcome.Failed { reason } -> Alcotest.fail reason

let prop_monotone =
  QCheck.Test.make ~name:"larger budget never returns fewer tuples" ~count:40
    QCheck.(pair (int_range 1 60) (int_range 0 60))
    (fun (fuel, extra) ->
      let f = parse "~R(x)" in
      let answer fuel =
        let budget = Budget.make ~fuel () in
        let rep = Query.eval_resilient ~budget ~domain:presburger ~state:nat_state f in
        tuples_of rep.Outcome.verdict
      in
      let small = answer fuel and big = answer (fuel + extra) in
      List.for_all (fun t -> Relation.mem t big) (Relation.tuples small))

(* ------------------------ Cooper LCM overflow ----------------------- *)

(* Two 30-bit primes still multiply within a 63-bit int; three cannot.
   The seed crashed with [failwith] here — now it is a structured
   Unsupported failure, and small divisor systems keep working. *)
let test_cooper_lcm_overflow () =
  let f = parse "exists x. 1000000007 | x /\\ 998244353 | x /\\ 1000000009 | x" in
  (match Fq_domain.Presburger.decide f with
  | Ok _ -> Alcotest.fail "an over-range divisor LCM cannot be decided natively"
  | Error e -> (
    match Budget.failure_of_string e with
    | Some (Budget.Unsupported _) -> ()
    | _ -> Alcotest.failf "expected a structured Unsupported failure, got: %s" e));
  (* the same shape with small divisors is decided, with and without budget *)
  let g = parse "exists x. 4 | x /\\ 6 | x /\\ 9 | x" in
  Alcotest.(check (result bool string)) "small lcm decides" (Ok true)
    (Fq_domain.Presburger.decide g);
  Alcotest.(check (result bool string)) "small lcm decides under budget" (Ok true)
    (Budget.protect
       ~budget:(Budget.make ~fuel:1_000_000 ())
       (fun () -> Fq_domain.Presburger.decide g))

let test_cooper_fuel_trips () =
  (* a feasible but long expansion (δ = 9973) trips a small shared budget *)
  let f = parse "exists x. x > 2 /\\ 9973 | x + 1" in
  match Budget.protect ~budget:(Budget.of_fuel 100) (fun () -> Fq_domain.Presburger.decide f) with
  | Error "budget: fuel exhausted" -> ()
  | Ok _ -> Alcotest.fail "expected the expansion to trip the 100-tick budget"
  | Error e -> Alcotest.failf "expected a fuel trip, got: %s" e

(* --------------------------- TM governor ---------------------------- *)

let test_run_b_matches_run () =
  List.iter
    (fun (name, input, fuel) ->
      let e = List.find (fun e -> e.Fq_tm.Zoo.name = name) Fq_tm.Zoo.all in
      let m = e.Fq_tm.Zoo.machine in
      let legacy = Fq_tm.Run.run ~fuel m input in
      let governed = Fq_tm.Run.run_b ~budget:(Budget.of_fuel ~share:false fuel) m input in
      match (legacy, governed) with
      | Fq_tm.Run.Halted { steps; result }, Fq_tm.Run.Done { steps = s; result = r } ->
        Alcotest.(check int) (name ^ ": same steps") steps s;
        Alcotest.(check string) (name ^ ": same result") result r
      | Fq_tm.Run.Out_of_fuel, Fq_tm.Run.Stopped { steps; reason = Budget.Fuel_exhausted } ->
        Alcotest.(check int) (name ^ ": stopped at the fuel bound") fuel steps
      | _ -> Alcotest.failf "%s: legacy and governed runs disagree" name)
    [ ("scan_right", "111", 100); ("loop", "1", 57); ("parity", "11", 100) ]

let () =
  Alcotest.run "budget"
    [ ( "core",
        [ Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "charge" `Quick test_charge;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "error-string round trip" `Quick test_error_string_roundtrip;
          Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping;
          Alcotest.test_case "ambient state is per thread" `Quick test_ambient_per_thread;
          Alcotest.test_case "protect" `Quick test_protect ] );
      ( "unsafe queries",
        [ Alcotest.test_case "always Partial, never hangs" `Quick test_unsafe_always_partial;
          Alcotest.test_case "deadline trips the scan" `Quick test_unsafe_deadline ] );
      ( "guarded = unguarded",
        [ Alcotest.test_case "decision procedures" `Quick test_guarded_matches_unguarded_decide;
          Alcotest.test_case "compiled evaluation" `Quick test_guarded_matches_unguarded_eval;
          Alcotest.test_case "enumeration" `Quick test_enumeration_shared_matches_unshared ] );
      ( "degradation chain",
        [ Alcotest.test_case "tier reporting" `Quick test_tiers;
          Alcotest.test_case "resume token (enumerate)" `Quick test_resume_token;
          Alcotest.test_case "resume token (query front-end)" `Quick test_resume_via_query;
          Alcotest.test_case "resume after an injected deadline" `Quick
            test_resume_after_injected_deadline;
          QCheck_alcotest.to_alcotest prop_monotone ] );
      ( "cooper",
        [ Alcotest.test_case "LCM overflow is Unsupported" `Quick test_cooper_lcm_overflow;
          Alcotest.test_case "long expansion trips fuel" `Quick test_cooper_fuel_trips ] );
      ( "turing machines",
        [ Alcotest.test_case "run_b matches run" `Quick test_run_b_matches_run ] ) ]
