(* Tests for the deterministic fault-injection harness (Fq_core.Fault)
   and the supervisor (Fq_core.Supervisor), capped by the chaos property:
   for every seed and schedule, a faulted supervised evaluation either
   agrees with the clean run, or returns a structured Partial whose
   resume token converges to the clean answer, or a structured crash —
   never an uncaught exception, a poisoned cache, or a hang. *)

module Budget = Fq_core.Budget
module Fault = Fq_core.Fault
module Supervisor = Fq_core.Supervisor
module Formula = Fq_logic.Formula
module Relation = Fq_db.Relation
module Value = Fq_db.Value
module State = Fq_db.State
module Schema = Fq_db.Schema
module Decide_cache = Fq_domain.Decide_cache
module Query = Fq_eval.Query
module Outcome = Fq_eval.Outcome

let parse = Fq_logic.Parser.formula_exn

(* No test in this binary may hang: a daemon thread kills the whole
   process if the suite outlives its deadline.  Normal completion exits
   first, taking the thread with it. *)
let _watchdog =
  Thread.create
    (fun () ->
      Thread.delay 240.;
      prerr_endline "test_fault: watchdog timeout — a chaos case hung";
      exit 125)
    ()

let no_sleep = { Supervisor.default_policy with sleep = (fun _ -> ()) }

(* ------------------------------ fault ------------------------------- *)

let test_at_rule () =
  let plan =
    Fault.plan
      ~rules:
        [ Fault.At { site = "s"; hits = [ 1; 3 ]; action = Fault.Crash "bang" } ]
      ~seed:0 ()
  in
  let fired =
    Fault.with_plan plan (fun () ->
        List.map
          (fun _ -> match Fault.hit "s" with () -> false | exception Fault.Injected _ -> true)
          [ 1; 2; 3; 4 ])
  in
  Alcotest.(check (list bool)) "fires exactly at hits 1 and 3" [ true; false; true; false ]
    fired;
  Alcotest.(check int) "two injections logged" 2 (Fault.injection_count plan);
  (* other sites are untouched by an At rule *)
  Fault.with_plan plan (fun () -> Fault.hit "t");
  Alcotest.(check int) "no injection at a foreign site" 2 (Fault.injection_count plan)

let test_disabled_is_noop () =
  Alcotest.(check bool) "no ambient plan" false (Fault.enabled ());
  (* a hit without a plan must be a plain no-op *)
  Fault.hit "decide";
  let plan = Fault.chaos ~permille:1000 ~seed:1 () in
  Fault.with_plan plan (fun () ->
      Alcotest.(check bool) "plan installed" true (Fault.enabled ()));
  Alcotest.(check bool) "plan restored" false (Fault.enabled ())

let test_trip_action_is_structured () =
  let plan =
    Fault.plan
      ~rules:
        [ Fault.At { site = "s"; hits = [ 1 ]; action = Fault.Trip Budget.Deadline_exceeded } ]
      ~seed:0 ()
  in
  match Fault.with_plan plan (fun () -> Fault.hit "s") with
  | () -> Alcotest.fail "trip did not fire"
  | exception Budget.Exhausted Budget.Deadline_exceeded -> ()

let workload plan =
  Fault.with_plan plan (fun () ->
      List.concat_map
        (fun site ->
          List.filter_map
            (fun _ ->
              match Fault.hit site with
              | () -> None
              | exception Budget.Exhausted f -> Some (site, "trip:" ^ Budget.error_string f)
              | exception Fault.Injected { reason; _ } -> Some (site, reason))
            [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
        [ "decide"; "enumerate.scan"; "qe.cooper"; "relalg.node" ])

let test_chaos_determinism () =
  let run seed = workload (Fault.chaos ~permille:300 ~seed ()) in
  Alcotest.(check (list (pair string string))) "same seed, same schedule" (run 7) (run 7);
  (* a 30%-per-hit schedule over 40 hits that never fires would be broken *)
  Alcotest.(check bool) "the schedule does fire" true (List.length (run 7) > 0);
  Alcotest.(check bool) "different seeds differ somewhere" true
    (List.exists (fun s -> run s <> run 7) [ 8; 9; 10; 11; 12 ])

let test_counters_persist_across_attempts () =
  (* the same plan re-installed sees hit numbers continue — this is what
     makes a Flaky fault recoverable by retry *)
  let plan =
    Fault.plan
      ~rules:[ Fault.At { site = "s"; hits = [ 1 ]; action = Fault.Flaky "flaky" } ]
      ~seed:0 ()
  in
  let attempt () =
    match Fault.with_plan plan (fun () -> Fault.hit "s") with
    | () -> true
    | exception Fault.Injected { transient = true; _ } -> false
  in
  Alcotest.(check bool) "first attempt faults" false (attempt ());
  Alcotest.(check bool) "second attempt passes the faulted hit" true (attempt ())

(* ---------------------------- supervisor ---------------------------- *)

let test_retry_transient () =
  let calls = ref 0 in
  let run =
    Supervisor.supervise ~policy:no_sleep ~name:"flaky" (fun attempt ->
        incr calls;
        if attempt < 3 then
          raise (Fault.Injected { site = "s"; hit = attempt; transient = true; reason = "flaky" })
        else 42)
  in
  (match run.Supervisor.outcome with
  | Supervisor.Value v -> Alcotest.(check int) "third attempt answers" 42 v
  | Supervisor.Crashed { reason; _ } -> Alcotest.failf "crashed: %s" reason);
  Alcotest.(check int) "three attempts" 3 run.Supervisor.attempts;
  Alcotest.(check int) "two retries" 2 run.Supervisor.retried;
  Alcotest.(check (list (float 0.0001))) "exponential backoff" [ 1.; 2. ]
    run.Supervisor.backoffs_ms;
  Alcotest.(check int) "the thunk really ran three times" 3 !calls

let test_no_retry_on_hard_crash () =
  let calls = ref 0 in
  let run =
    Supervisor.supervise ~policy:no_sleep ~name:"hard" (fun _ ->
        incr calls;
        failwith "boom")
  in
  (match run.Supervisor.outcome with
  | Supervisor.Crashed { transient; reason } ->
    Alcotest.(check bool) "not transient" false transient;
    Alcotest.(check bool) "reason names the exception" true
      (String.length reason > 0 && String.sub reason 0 7 = "Failure")
  | Supervisor.Value _ -> Alcotest.fail "expected a crash");
  Alcotest.(check int) "no retry of a non-transient crash" 1 !calls

let test_transient_exhausts_attempts () =
  let run =
    Supervisor.supervise ~policy:no_sleep ~name:"always-flaky" (fun a ->
        raise (Fault.Injected { site = "s"; hit = a; transient = true; reason = "flaky" }))
  in
  (match run.Supervisor.outcome with
  | Supervisor.Crashed { transient; reason } ->
    Alcotest.(check bool) "last crash is the transient one" true transient;
    Alcotest.(check string) "classified with its site" "fault at s: flaky" reason
  | Supervisor.Value _ -> Alcotest.fail "expected exhaustion");
  Alcotest.(check int) "all attempts used" 3 run.Supervisor.attempts

let test_retry_value () =
  let run =
    Supervisor.supervise ~policy:no_sleep
      ~retry_value:(fun v -> if v < 0 then Some "incomplete" else None)
      ~name:"partial" (fun attempt -> if attempt < 2 then -attempt else attempt)
  in
  (match run.Supervisor.outcome with
  | Supervisor.Value v -> Alcotest.(check int) "second attempt accepted" 2 v
  | Supervisor.Crashed { reason; _ } -> Alcotest.failf "crashed: %s" reason);
  Alcotest.(check int) "one value-driven retry" 1 run.Supervisor.retried;
  (* the last attempt's value is kept even if it still asks for a retry *)
  let run =
    Supervisor.supervise ~policy:no_sleep
      ~retry_value:(fun _ -> Some "never good enough")
      ~name:"insatiable" (fun attempt -> attempt)
  in
  match run.Supervisor.outcome with
  | Supervisor.Value v -> Alcotest.(check int) "final attempt's value" 3 v
  | Supervisor.Crashed { reason; _ } -> Alcotest.failf "crashed: %s" reason

let test_backoff_cap () =
  let policy =
    { no_sleep with Supervisor.max_attempts = 6; base_backoff_ms = 1.; backoff_factor = 3.;
      max_backoff_ms = 10. }
  in
  let run =
    Supervisor.supervise ~policy ~name:"capped" (fun a ->
        raise (Fault.Injected { site = "s"; hit = a; transient = true; reason = "flaky" }))
  in
  Alcotest.(check (list (float 0.0001))) "geometric, then capped" [ 1.; 3.; 9.; 10.; 10. ]
    run.Supervisor.backoffs_ms

let test_fair_share () =
  (* three attempts split 100 fuel without overshooting, and unspent fuel
     rolls forward *)
  let s1 = Supervisor.fair_share ~total:100 ~spent:0 ~attempt:1 ~max_attempts:3 in
  Alcotest.(check int) "first share" 34 s1;
  let s2 = Supervisor.fair_share ~total:100 ~spent:s1 ~attempt:2 ~max_attempts:3 in
  Alcotest.(check int) "second share" 33 s2;
  let s3 = Supervisor.fair_share ~total:100 ~spent:(s1 + s2) ~attempt:3 ~max_attempts:3 in
  Alcotest.(check int) "third share" 33 s3;
  Alcotest.(check bool) "never exceeds the total" true (s1 + s2 + s3 <= 100);
  (* a cheap first attempt leaves more for the second *)
  let s2' = Supervisor.fair_share ~total:100 ~spent:5 ~attempt:2 ~max_attempts:3 in
  Alcotest.(check int) "unspent fuel rolls forward" 48 s2';
  (* over-spent budgets still grant the minimum share *)
  Alcotest.(check int) "floor of one" 1
    (Supervisor.fair_share ~total:10 ~spent:50 ~attempt:3 ~max_attempts:3)

(* ------------------------------ breaker ----------------------------- *)

let test_breaker_lifecycle () =
  let now = ref 0. in
  let b = Supervisor.Breaker.create ~threshold:3 ~cooldown_ms:100. ~now_ms:(fun () -> !now) () in
  let check_state msg expected =
    Alcotest.(check bool) msg true (Supervisor.Breaker.state b = expected)
  in
  check_state "starts closed" Supervisor.Breaker.Closed;
  Supervisor.Breaker.failure b;
  Supervisor.Breaker.failure b;
  check_state "below threshold stays closed" Supervisor.Breaker.Closed;
  Supervisor.Breaker.success b;
  Supervisor.Breaker.failure b;
  Supervisor.Breaker.failure b;
  check_state "success resets the count" Supervisor.Breaker.Closed;
  Supervisor.Breaker.failure b;
  check_state "threshold consecutive failures trip" Supervisor.Breaker.Open;
  Alcotest.(check bool) "open short-circuits" false (Supervisor.Breaker.allow b);
  now := 99.;
  Alcotest.(check bool) "still cooling down" false (Supervisor.Breaker.allow b);
  now := 100.;
  Alcotest.(check bool) "cooldown elapsed: probe allowed" true (Supervisor.Breaker.allow b);
  check_state "probing is half-open" Supervisor.Breaker.Half_open;
  Supervisor.Breaker.failure b;
  check_state "failed probe reopens immediately" Supervisor.Breaker.Open;
  now := 250.;
  Alcotest.(check bool) "second probe allowed" true (Supervisor.Breaker.allow b);
  Supervisor.Breaker.success b;
  check_state "successful probe closes" Supervisor.Breaker.Closed;
  Alcotest.(check int) "two trips recorded" 2 (Supervisor.Breaker.trips b)

(* A budget trip is the governor's verdict on one run, whether a decide
   returns it as an error or raises it: neither may open the circuit.
   A raised crash still does. *)
let test_breaker_ignores_raised_trips () =
  let f = parse "forall x. exists y. x < y" in
  let raising exn =
    Fq_domain.Domain.with_decide (module Fq_domain.Presburger) (fun _ -> raise exn)
  in
  let run ~calls exn =
    let breaker = Supervisor.Breaker.create ~threshold:3 () in
    let (module G : Fq_domain.Domain.S) =
      Decide_cache.guarded (Decide_cache.create ()) ~breaker ~name:"stub" (raising exn)
    in
    for _ = 1 to calls do
      match G.decide f with
      | exception e when e == exn -> ()
      | _ -> Alcotest.fail "the stub's exception must propagate"
    done;
    Supervisor.Breaker.state breaker
  in
  Alcotest.(check bool) "raised budget trips leave the breaker closed" true
    (run ~calls:5 (Budget.Exhausted Budget.Fuel_exhausted) = Supervisor.Breaker.Closed);
  Alcotest.(check bool) "raised crashes open it" true
    (run ~calls:3 (Failure "boom") = Supervisor.Breaker.Open)

(* --------------------------- parallel map --------------------------- *)

let test_parallel_map () =
  let input = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) input in
  List.iter
    (fun jobs ->
      let got = Supervisor.parallel_map ~jobs (fun i -> i * i) input in
      Alcotest.(check (array int)) (Printf.sprintf "jobs=%d preserves order" jobs) expected got)
    [ 1; 2; 4; 7 ];
  Alcotest.(check (array int)) "more jobs than items" [| 0; 2 |]
    (Supervisor.parallel_map ~jobs:16 (fun i -> 2 * i) [| 0; 1 |]);
  match Supervisor.parallel_map ~jobs:4 (fun i -> if i = 13 then failwith "boom" else i) input with
  | _ -> Alcotest.fail "a worker exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "the worker's exception" "boom" msg

(* Worker domains must not share ambient state: each gets its own budget
   slot and its own tick clock. *)
let test_worker_isolation () =
  let results =
    Supervisor.parallel_map ~jobs:4
      (fun fuel ->
        let b = Budget.make ~fuel () in
        let r =
          Budget.guard b (fun () ->
              for _ = 1 to 1_000 do
                Budget.tick_ambient ()
              done)
        in
        (r = Error Budget.Fuel_exhausted, Budget.spent b))
      [| 10; 20; 10_000; 30 |]
  in
  Alcotest.(check bool) "small budgets tripped" true
    (fst results.(0) && fst results.(1) && fst results.(3));
  Alcotest.(check bool) "large budget did not" false (fst results.(2));
  Alcotest.(check int) "each domain charged only its own budget" 1_000 (snd results.(2))

(* -------------------- shared cache under parallelism ----------------- *)

let eq_domain : Fq_domain.Domain.t = (module Fq_domain.Eq_domain)
let nat_order : Fq_domain.Domain.t = (module Fq_domain.Nat_order)
let presburger : Fq_domain.Domain.t = (module Fq_domain.Presburger)

let test_cache_parallel_stress () =
  let sentences =
    [ (eq_domain, "forall x. exists y. ~(x = y)");
      (eq_domain, "exists x y. ~(x = y)");
      (nat_order, "forall x. exists y. x < y");
      (nat_order, "exists x. forall y. ~(y < x)");
      (presburger, "forall x. exists y. y = x + 1");
      (presburger, "exists x. x + x = 7");
      (presburger, "exists x. 4 | x /\\ 6 | x") ]
    |> List.map (fun (d, s) -> (d, parse s))
  in
  let expected = List.map (fun (d, f) -> Fq_domain.Decide_cache.(decide (create ()) d f)) sentences in
  let shared = Decide_cache.create () in
  let jobs =
    Array.init 280 (fun i -> List.nth sentences (i mod List.length sentences))
  in
  let results =
    Supervisor.parallel_map ~jobs:4 (fun (d, f) -> Decide_cache.decide shared d f) jobs
  in
  Array.iteri
    (fun i r ->
      let want = List.nth expected (i mod List.length expected) in
      Alcotest.(check (result bool string)) (Printf.sprintf "job %d" i) want r)
    results;
  let stats = Decide_cache.stats shared in
  Alcotest.(check int) "one entry per distinct sentence" (List.length sentences)
    stats.Decide_cache.entries;
  Alcotest.(check int) "every lookup accounted for" 280
    (stats.Decide_cache.hits + stats.Decide_cache.misses)

(* A budget trip inside a cached decide must not poison the table. *)
let test_cache_never_poisoned_by_trips () =
  let cache = Decide_cache.create () in
  let f = parse "exists x. x > 2 /\\ 9973 | x + 1" in
  let starved =
    Budget.protect ~budget:(Budget.of_fuel 100) (fun () ->
        Decide_cache.decide cache presburger f)
  in
  Alcotest.(check (result bool string)) "starved run trips" (Error "budget: fuel exhausted")
    starved;
  let funded = Decide_cache.decide cache presburger f in
  Alcotest.(check (result bool string)) "a funded retry is not served the stale trip"
    (Ok true) funded;
  (* fragment errors, by contrast, are eternal and stay cached *)
  let g = parse "exists x. 1000000007 | x /\\ 998244353 | x /\\ 1000000009 | x" in
  let e1 = Decide_cache.decide cache presburger g in
  let before = (Decide_cache.stats cache).Decide_cache.misses in
  let e2 = Decide_cache.decide cache presburger g in
  Alcotest.(check (result bool string)) "unsupported is stable" e1 e2;
  Alcotest.(check int) "and served from the cache" before
    (Decide_cache.stats cache).Decide_cache.misses

(* --------------------------- chaos property -------------------------- *)

let nat_state =
  State.make
    ~schema:(Schema.make [ ("R", 1) ])
    [ ("R", Relation.make ~arity:1 [ [ Value.int 1 ] ]) ]

let family_state =
  let s = Value.str in
  State.make
    ~schema:(Schema.make [ ("F", 2) ])
    [ ( "F",
        Relation.make ~arity:2
          [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ] ] ) ]

(* Scenarios with finite, certifiable clean answers, chosen to cross every
   injection site: the ranf/adom compiled tiers (relalg.node), the §1.1
   scan (decide, decide_cache.lookup, the enumerate sites), and the QE
   loops of three domains. *)
let scenarios =
  [ (eq_domain, family_state, "F(\"adam\", x)");
    (eq_domain, family_state, "exists y z. ~(y = z) /\\ F(x, y) /\\ F(x, z)");
    (eq_domain, family_state, "exists y. F(x, y)");
    (nat_order, nat_state, "exists y. R(y) /\\ x < y");
    (presburger, nat_state, "exists y. R(y) /\\ x + x = y + 1") ]
  |> List.map (fun (d, st, s) -> (d, st, parse s))

let clean_answers =
  lazy
    (List.map
       (fun (domain, state, f) ->
         let budget = Budget.make ~fuel:1_000_000 () in
         match (Query.eval_resilient ~budget ~domain ~state f).Outcome.verdict with
         | Outcome.Complete { answer; _ } -> answer
         | Outcome.Partial _ -> Alcotest.fail "chaos scenario has no clean complete answer"
         | Outcome.Failed { reason } -> Alcotest.fail reason)
       scenarios)

let total_fuel = 30_000

(* The batch runner's shape in miniature: supervised attempts on fair
   fuel shares, resume token carried across attempts, the plan's hit
   counters persisting so flaky faults are survivable. *)
let chaos_run ~plan ~cache ~domain ~state f =
  let resume = ref None in
  let spent = ref 0 in
  let attempt k =
    let fuel =
      Supervisor.fair_share ~total:total_fuel ~spent:!spent ~attempt:k ~max_attempts:3
    in
    let budget = Budget.make ~fuel () in
    let rep =
      Fault.with_plan plan (fun () ->
          Query.eval_resilient ~budget ~cache ?resume:!resume ~domain ~state f)
    in
    spent := !spent + rep.Outcome.usage.Budget.ticks;
    (match rep.Outcome.verdict with
    | Outcome.Partial { resume = r; _ } -> resume := Some r
    | _ -> ());
    rep
  in
  Supervisor.supervise ~policy:no_sleep
    ~retry_value:(fun rep ->
      match rep.Outcome.verdict with
      | Outcome.Partial { reason = Budget.Fuel_exhausted | Budget.Deadline_exceeded; _ } ->
        Some "partial under budget"
      | _ -> None)
    ~name:"chaos" attempt

let subset small big =
  List.for_all (fun t -> Relation.mem t big) (Relation.tuples small)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let prop_chaos_containment =
  QCheck.Test.make ~name:"faulted runs: clean answer, resumable partial, or structured crash"
    ~count:250
    QCheck.(
      triple
        (int_range 0 (List.length scenarios - 1))
        (int_range 0 9_999) (int_range 0 150))
    (fun (i, seed, permille) ->
      let domain, state, f = List.nth scenarios i in
      let clean = List.nth (Lazy.force clean_answers) i in
      let plan = Fault.chaos ~permille ~seed () in
      let cache = Decide_cache.create () in
      let run = chaos_run ~plan ~cache ~domain ~state f in
      let contained =
        match run.Supervisor.outcome with
        | Supervisor.Value { Outcome.verdict = Outcome.Complete { answer; _ }; _ } ->
          (* injections only ever raise — they can never flip a verdict,
             so a faulted Complete must be the clean answer *)
          Relation.equal answer clean
        | Supervisor.Value { Outcome.verdict = Outcome.Partial { tuples; resume; _ }; _ } ->
          (* a partial is a correct prefix, and its token must finish the
             job once the faults stop *)
          subset tuples clean
          &&
          let budget = Budget.make ~fuel:1_000_000 () in
          (match
             (Query.eval_resilient ~budget ~cache ~resume ~domain ~state f).Outcome.verdict
           with
          | Outcome.Complete { answer; _ } -> Relation.equal answer clean
          | _ -> false)
        | Supervisor.Value { Outcome.verdict = Outcome.Failed { reason }; _ } ->
          QCheck.Test.fail_reportf "faulted run degenerated to Failed: %s" reason
        | Supervisor.Crashed { reason; _ } ->
          (* only the injector crashes these scenarios, and the supervisor
             must report it structurally *)
          has_prefix "fault at " reason
      in
      (* whatever happened, the shared cache must not be poisoned: a
         clean run over the same cache still gets the clean answer *)
      let budget = Budget.make ~fuel:1_000_000 () in
      let after =
        match (Query.eval_resilient ~budget ~cache ~domain ~state f).Outcome.verdict with
        | Outcome.Complete { answer; _ } -> Relation.equal answer clean
        | _ -> false
      in
      contained && after)

(* The schedule really is a pure function of the seed: the same chaos
   case re-run from scratch performs the identical injection log. *)
let prop_chaos_deterministic =
  QCheck.Test.make ~name:"identical seeds replay identical injections" ~count:60
    QCheck.(pair (int_range 0 (List.length scenarios - 1)) (int_range 0 9_999))
    (fun (i, seed) ->
      let domain, state, f = List.nth scenarios i in
      let once () =
        let plan = Fault.chaos ~permille:60 ~seed () in
        let cache = Decide_cache.create () in
        let _run = chaos_run ~plan ~cache ~domain ~state f in
        Fault.injections plan
      in
      once () = once ())

let qcheck_rand =
  (* the CI chaos matrix drives the generator seed explicitly *)
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with _ -> 42)
    | None -> 42
  in
  Random.State.make [| seed |]

let chaos_case name test =
  Alcotest.test_case name `Slow (fun () ->
      QCheck.Test.check_exn ~rand:qcheck_rand test)

let () =
  Alcotest.run "fault"
    [ ( "fault",
        [ Alcotest.test_case "At rule" `Quick test_at_rule;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "Trip raises the governor failure" `Quick
            test_trip_action_is_structured;
          Alcotest.test_case "chaos schedule is seed-deterministic" `Quick
            test_chaos_determinism;
          Alcotest.test_case "hit counters persist across attempts" `Quick
            test_counters_persist_across_attempts ] );
      ( "supervisor",
        [ Alcotest.test_case "transient crashes retry" `Quick test_retry_transient;
          Alcotest.test_case "hard crashes do not" `Quick test_no_retry_on_hard_crash;
          Alcotest.test_case "attempts exhaust" `Quick test_transient_exhausts_attempts;
          Alcotest.test_case "values can ask for retries" `Quick test_retry_value;
          Alcotest.test_case "backoff is capped" `Quick test_backoff_cap;
          Alcotest.test_case "fair fuel shares" `Quick test_fair_share ] );
      ( "breaker",
        [ Alcotest.test_case "closed/open/half-open lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "raised budget trips do not open it" `Quick
            test_breaker_ignores_raised_trips ] );
      ( "parallel",
        [ Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "worker ambient isolation" `Quick test_worker_isolation;
          Alcotest.test_case "shared decide cache stress" `Quick test_cache_parallel_stress;
          Alcotest.test_case "trips never poison the cache" `Quick
            test_cache_never_poisoned_by_trips ] );
      ( "chaos",
        [ chaos_case "containment" prop_chaos_containment;
          chaos_case "determinism" prop_chaos_deterministic ] ) ]
