(** One-call analysis of a query against a domain and a state: everything
    the library can say about it, produced by the appropriate tool —

    - the {e syntactic} verdict ({!Safe_range}): finite in {e every} state?
    - the {e relative safety} verdict ({!Relative_safety.decide_for}):
      finite in {e this} state? ([Error] over domains where Theorem 3.3
      applies);
    - the {e answer}, from the governed degradation chain
      ({!Fq_eval.Query.eval_resilient}): the same {!Fq_eval.Outcome.t},
      tier and budget accounting that [fq eval] reports.

    [fq report] prints it. *)

type t = {
  formula : Fq_logic.Formula.t;
  safe_range : Fq_eval.Safe_range.verdict;
  finite_here : (bool, string) result;
  evaluation : Fq_eval.Outcome.t;
}

val analyze :
  ?budget:Fq_core.Budget.t ->
  ?max_certified:int ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  t
(** [budget] (default [Budget.of_fuel 10_000]) governs the whole chain —
    the compiled tiers as well as the enumeration fallback.  The relative
    safety verdict is computed outside it. *)

val pp : Format.formatter -> t -> unit
