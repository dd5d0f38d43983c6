(** The Section 1.1 query-answering algorithm — the paper's proof that,
    over a countable domain with constants for all elements and a
    decidable theory, {e finite answers are computable}:

    translate the query into a pure domain formula [F'] ({!Translate}),
    ask the decision procedure whether [∃x̄ F'] holds, and if so scan the
    domain's tuple enumeration, testing each candidate; after every hit,
    ask whether [∃x̄ (F' ∧ ⋀_{found ā} x̄ ≠ ā)] still holds and stop when it
    does not. The scan terminates exactly on queries with finite answers
    in the given state ("note that, at least for safe queries, this
    algorithm always stops"); a budget turns divergence on infinite
    answers into a [Partial] verdict. *)

module Budget = Fq_core.Budget

type budgeted =
  | Complete of Fq_db.Relation.t
      (** The complete (finite) answer, certified by the decision
          procedure. *)
  | Partial of { tuples : Fq_db.Relation.t; seen : int; reason : Budget.failure }
      (** The governor tripped mid-scan: the tuples found so far, the
          number of candidates consumed ([seen], a resume token for
          {!run_budgeted}'s [?resume]), and why the scan stopped. The
          query may have an infinite answer in this state — deciding
          which is the (possibly undecidable, Theorem 3.3) relative
          safety problem. *)

val tuples : arity:int -> (unit -> Fq_db.Value.t Seq.t) -> Fq_db.Value.t list Seq.t
(** Fair enumeration of all [arity]-tuples of an enumerable set (by
    maximal index, so every tuple appears at a finite position). Arity 0
    yields the single empty tuple. *)

val run_budgeted :
  ?max_certified:int ->
  ?resume:int * Fq_db.Relation.t ->
  budget:Budget.t ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (budgeted, string) result
(** The governed scan. Evaluates the query's free variables in their
    order of occurrence. Candidates are scanned active-domain-first, then
    along the domain enumeration. For a {e sentence}, the answer is the
    0-ary relation: nonempty iff the sentence holds.

    One budget tick per candidate. A shared budget is also installed as
    the ambient budget for the scan, so budget-aware decision procedures
    checkpoint inside their own loops, and the wall-clock deadline cuts
    even a single long QE call's candidate loop short; a
    [Budget.of_fuel ~share:false n] budget leaves the decision procedures
    untouched and caps the number of candidates decided at [n].
    Budget exhaustion — in the scan or inside a decision procedure —
    becomes [Partial] carrying everything found so far; only translation
    and genuine decision failures surface as [Error].

    [max_certified] bounds the answer size the completeness sentence is
    asked about (default [12]) — the sentence is extended incrementally
    with one exclusion clause per found tuple, and past the cap the scan
    stops with [Partial] and reason [Oversize]. The scan reaches the
    domain only through [decide], so a domain wrapped by
    {!Fq_domain.Decide_cache.domain} memoizes every decision on
    alpha-equivalent sentences; {!Query.eval_resilient}'s [?cache] does
    that wrap. [resume] (the [seen] count and tuples of a previous
    [Partial]) skips the already-consumed prefix of the candidate
    enumeration, so a sequence of budgeted calls converges to the same
    answer as one unbounded call. *)

val certified_complete :
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  Fq_db.Relation.t ->
  (bool, string) result
(** The completeness check on its own: does the decision procedure confirm
    that no tuple outside the given relation satisfies the query? *)
