(** Resilient query evaluation — the degradation chain.

    Theorems 3.1/3.3 rule out deciding up front whether a query is finite,
    so this front-end accepts {e any} query and always returns: it tries
    the fast compiled engines first and falls back to governed enumeration,
    reporting which tier answered, the resources spent, and — when the
    budget runs dry mid-scan — a [Partial] relation with a resume token.

    Tier 1 (safe-range queries only): RANF compilation to adom-free algebra
    plans ({!Ranf}).  Tier 2: active-domain compilation
    ({!Algebra_translate}), still exact for safe-range queries.  Tier 3:
    the Section 1.1 enumerate-and-decide scan under the budget
    ({!Enumerate.run_budgeted}).  Non-safe-range queries go straight to
    tier 3, where active-domain semantics would be wrong.

    This module is the only one that knows the tier order and names:
    {!eval_resilient} walks the ladder under a budget, {!plan} walks the
    same ladder as a dry compile (for explain output and slow logs). *)

module Budget = Fq_core.Budget

val scan_tier : string
(** ["enumerate"]: the tier that answers when no compiled tier applies. *)

val safe_range : schema:(string * int) list -> Fq_logic.Formula.t -> Safe_range.verdict
(** The ladder's gate ({!Safe_range.check}): only queries that pass it
    may take a compiled tier. *)

type plan = {
  safe_range : Safe_range.verdict;  (** the gate's verdict *)
  tier : string;  (** the first tier whose compiler accepts the query *)
  compiled : Algebra_translate.compiled option;
      (** its plan and columns; [None] when [tier] is {!scan_tier} *)
  passed : (string * string) list;
      (** tiers passed before [tier], with why — the [attempts] an
          evaluation that completes in [tier] reports *)
}

val plan :
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  plan
(** Which tier will answer, and with what plan, without evaluating or
    spending budget.  A compiled plan that then fails at run time (an
    unknown domain predicate) passes {!eval_resilient} to the next tier,
    which this dry walk cannot foresee. *)

val eval_resilient :
  ?budget:Budget.t ->
  ?max_certified:int ->
  ?cache:Fq_domain.Decide_cache.t ->
  ?resume:Outcome.resume ->
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  Outcome.t
(** Never raises and never hangs under a finite budget.  The default
    budget is [Budget.of_fuel 10_000].  With [?resume] (the token of a
    previous [Partial]) the compiled tiers are skipped (the prior call
    already fell through them) and the scan continues from the token.
    [?stats] feeds the compiled tiers' cost-based optimizer (e.g. a
    telemetry profile via {!Fq_db.Optimizer.Stats.with_profile}); by
    default each tier derives base-cardinality statistics from the
    state. *)
