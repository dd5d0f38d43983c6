(** Relational-algebra normal form: direct compilation of safe-range
    queries into algebra plans that never materialize the active domain.

    {!Algebra_translate} compiles {e any} formula by relativizing to the
    active domain — simple and total, but every negation and loose
    variable costs an [adom^k] product. For {e safe-range} formulas the
    classical RANF route does better: rewrite so that every disjunction
    joins subformulas with equal free variables and every negation and
    every variable is guarded by a positive conjunct, then translate
    conjunctions to joins, guarded negations to anti-joins, disjunctions
    to unions and existentials to projections. The resulting plans touch
    only the stored relations.

    The translation borrows {!Algebra_translate}'s primitives: database
    atoms, natural joins, constant interpretation and the final optimizer
    step.  Tests check answer agreement with {!Algebra_translate} and the
    Section 1.1 evaluator; the benchmark harness (E15) measures the
    plan-size and evaluation-time gap. *)

val to_ranf : Fq_logic.Formula.t -> Fq_logic.Formula.t
(** SRNF followed by guard distribution: conjunctions push into
    disjunctions whose disjuncts bind unequal variable sets, so that the
    translation below applies. Preserves logical equivalence. *)

val compile :
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (Algebra_translate.compiled, string) result
(** Fails (rather than falling back) when the formula is not safe-range —
    use {!Algebra_translate} for the general active-domain semantics. The
    state is used only to interpret scheme constants and derive optimizer
    statistics; the plan contains no active-domain literal.  [?stats]
    feeds the cost-based optimizer passes (join ordering, predicate
    placement) — by default {!Fq_db.Optimizer.Stats.of_state}, i.e. base
    cardinalities without an observed profile. *)

val run :
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (Fq_db.Relation.t, string) result
