(** Compilation of relational calculus into relational algebra over the
    active domain — the classical counterpart of the {!Safe_range} syntax:
    for domain-independent (in particular safe-range) queries the compiled
    plan computes the natural answer in time polynomial in the database,
    in contrast to the generic enumerate-and-decide evaluator of
    Section 1.1 ({!Fq_eval.Enumerate}).

    The compilation relativizes to the active domain: every subformula
    becomes a plan over its free variables, with unconstrained variables
    ranging over a unary active-domain relation. For a query that is {e
    not} domain-independent the plan still evaluates — to the {e
    active-domain semantics}, which then differs from the natural answer
    (Fact 2.1's query is the canonical witness); tests exploit this
    contrast.

    Supported atoms: database relations and domain predicates applied to
    variables and constants. Function terms (e.g. [x + 1 < y]) have no
    algebraic counterpart here and are rejected. *)

type compiled = {
  plan : Fq_db.Relalg.t;
  columns : string list;  (** free variables, in first-occurrence order *)
}

val compile :
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  ?extra_adom:Fq_db.Value.t list ->
  Fq_logic.Formula.t ->
  (compiled, string) result
(** Compiles against the given state's schema and active domain (the
    query's own constants are added automatically; [extra_adom] can add
    more). The plan embeds the active domain as a literal relation, so it
    is specific to the state.  [?stats] feeds the cost-based optimizer
    passes; default {!Fq_db.Optimizer.Stats.of_state}. *)

val eval_compiled :
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  compiled ->
  (Fq_db.Relation.t, string) result
(** {!Fq_db.Relalg.eval} of a compiled plan with the domain's predicates;
    an unknown predicate or a plan the engine rejects is an [Error]. *)

val run :
  ?stats:Fq_db.Optimizer.Stats.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  ?extra_adom:Fq_db.Value.t list ->
  Fq_logic.Formula.t ->
  (Fq_db.Relation.t, string) result
(** [compile] followed by {!eval_compiled}. *)
