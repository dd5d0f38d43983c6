module Formula = Fq_logic.Formula
module Relation = Fq_db.Relation
module State = Fq_db.State
module Schema = Fq_db.Schema
module Safe_range = Fq_eval.Safe_range
module Query = Fq_eval.Query
module Outcome = Fq_eval.Outcome

type t = {
  formula : Formula.t;
  safe_range : Safe_range.verdict;
  finite_here : (bool, string) result;
  evaluation : Outcome.t;
}

let analyze ?budget ?max_certified ~domain ~state f =
  { formula = f;
    safe_range = Query.safe_range ~schema:(Schema.relations (State.schema state)) f;
    finite_here = Relative_safety.decide_for ~domain ~state f;
    evaluation = Query.eval_resilient ?budget ?max_certified ~domain ~state f }

let pp fmt r =
  Format.fprintf fmt "@[<v>query: %a@," Formula.pp r.formula;
  (match r.safe_range with
  | Safe_range.Safe_range -> Format.fprintf fmt "syntactic: safe-range (finite in every state)@,"
  | Safe_range.Not_safe_range why -> Format.fprintf fmt "syntactic: not safe-range (%s)@," why);
  (match r.finite_here with
  | Ok true -> Format.fprintf fmt "in this state: finite@,"
  | Ok false -> Format.fprintf fmt "in this state: INFINITE@,"
  | Error e -> Format.fprintf fmt "in this state: undecided (%s)@," e);
  (match r.evaluation.Outcome.verdict with
  | Outcome.Complete { answer; tier } ->
    Format.fprintf fmt "answer (%s, %d tuples): %a@," tier (Relation.cardinal answer)
      Relation.pp answer
  | Outcome.Partial { tuples; reason; resume } ->
    Format.fprintf fmt "partial answer (%a after %d candidates): %d tuples so far@,"
      Fq_core.Budget.pp_failure reason resume.Outcome.seen (Relation.cardinal tuples)
  | Outcome.Failed { reason } -> Format.fprintf fmt "evaluation failed: %s@," reason);
  Format.fprintf fmt "@]"
