module Budget = Fq_core.Budget
module Telemetry = Fq_core.Telemetry
module Formula = Fq_logic.Formula
module Relation = Fq_db.Relation
module State = Fq_db.State
module Schema = Fq_db.Schema

let scan_tier = "enumerate"

type compiler =
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:State.t ->
  Formula.t ->
  (Algebra_translate.compiled, string) result

(* The compiled tiers, in the order they are tried.  Adding an engine to
   the degradation chain is adding an entry here. *)
let compiled_tiers : (string * compiler) list =
  [ ("ranf-algebra", Ranf.compile); ("adom-algebra", Algebra_translate.compile) ]

let safe_range ~schema f = Safe_range.check ~schema f

(* The one ladder.  [step tier compile] tries one compiled tier: [Ok r]
   ends the walk with [r] and the tiers passed before it, [Error why]
   passes to the next tier.  [Error passed] means the scan answers.  A
   query that fails the gate never reaches a compiled tier
   (active-domain compilation computes the wrong semantics there); the
   first tier reports the refusal. *)
let ladder ?stats ~domain ~state f step =
  let gate = safe_range ~schema:(Schema.relations (State.schema state)) f in
  let rec walk passed = function
    | [] -> Error (List.rev passed)
    | (tier, (compile : compiler)) :: rest -> (
      match step tier (fun () -> compile ?stats ~domain ~state f) with
      | Ok r -> Ok (r, List.rev passed)
      | Error why -> walk ((tier, why) :: passed) rest)
  in
  ( gate,
    match gate with
    | Safe_range.Safe_range -> walk [] compiled_tiers
    | Safe_range.Not_safe_range why ->
      Error [ (fst (List.hd compiled_tiers), "not safe-range: " ^ why) ] )

type plan = {
  safe_range : Safe_range.verdict;
  tier : string;
  compiled : Algebra_translate.compiled option;
  passed : (string * string) list;
}

let plan ?stats ~domain ~state f =
  let safe_range, walked =
    ladder ?stats ~domain ~state f (fun tier compile ->
        Result.map (fun c -> (tier, c)) (compile ()))
  in
  match walked with
  | Ok ((tier, c), passed) -> { safe_range; tier; compiled = Some c; passed }
  | Error passed -> { safe_range; tier = scan_tier; compiled = None; passed }

let eval_resilient ?budget ?max_certified ?cache ?resume ?stats ~domain ~state f =
  let budget = match budget with Some b -> b | None -> Budget.of_fuel 10_000 in
  Telemetry.with_span "query.eval_resilient" @@ fun () ->
  let arity = List.length (Formula.free_vars f) in
  let partial ?(tuples = Relation.empty ~arity) ?(seen = 0) reason =
    Outcome.Partial { tuples; reason; resume = { seen; found = tuples } }
  in
  let finish verdict attempts = { Outcome.verdict; usage = Budget.usage budget; attempts } in
  let enumerate attempts =
    let resume = Option.map (fun (r : Outcome.resume) -> (r.seen, r.found)) resume in
    finish
      (Telemetry.with_span ("tier:" ^ scan_tier) (fun () ->
           match Enumerate.run_budgeted ?max_certified ?cache ?resume ~budget ~domain ~state f with
           | Ok (Enumerate.Complete answer) -> Outcome.Complete { answer; tier = scan_tier }
           | Ok (Enumerate.Partial { tuples; seen; reason }) -> partial ~tuples ~seen reason
           | Error e -> Outcome.Failed { reason = e }))
      attempts
  in
  let annotate rep =
    Telemetry.set_attr "verdict"
      (Telemetry.Str
         (match rep.Outcome.verdict with
         | Outcome.Complete { tier; _ } -> "complete:" ^ tier
         | Partial _ -> "partial"
         | Failed _ -> "failed"));
    Telemetry.set_attr "budget_ticks" (Telemetry.Int rep.usage.Budget.ticks);
    rep
  in
  (* A compiled tier is attempted under the budget: its own exceptions
     stay [Error] strings that pass to the next tier, while governor trips
     — raised by the ambient-aware engines underneath ([Relalg.eval], the
     QE procedures) — surface as [Budget.failure] and end the whole chain
     in [Partial]. *)
  let step tier compile =
    Telemetry.with_span ("tier:" ^ tier) @@ fun () ->
    let run () = Result.bind (compile ()) (Algebra_translate.eval_compiled ~domain ~state) in
    let outcome, result =
      match Budget.guard budget run with
      | Ok (Ok answer) -> ("answered", Ok (Outcome.Complete { answer; tier }))
      | Ok (Error e) -> (
        match Budget.failure_of_string e with
        | Some reason -> ("budget", Ok (partial reason))
        | None -> ("passed", Error e))
      | Error reason -> ("budget", Ok (partial reason))
    in
    Telemetry.set_attr "outcome" (Telemetry.Str outcome);
    result
  in
  annotate
    (match resume with
    | Some _ -> enumerate [] (* the prior call already fell through the compiled tiers *)
    | None -> (
      match snd (ladder ?stats ~domain ~state f step) with
      | Ok (verdict, attempts) -> finish verdict attempts
      | Error attempts -> enumerate attempts))
