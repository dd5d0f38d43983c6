(** The {e relative safety} problem (Sections 1.3, 2, 3.3): given a query
    and a database state, decide whether the query's answer in that state
    is finite.

    Positive cases, each following the paper's proof:
    - {!via_active_domain} — the pure-equality domain: the answer is
      finite iff it stays within the active domain, testable with one
      fresh element;
    - {!via_finitization} — Theorem 2.5, any decidable extension of
      [N_<]: finite iff equivalent to the finitization;
    - {!via_extended_active} — Theorem 2.6, the successor domain [N'].

    Negative case — Theorem 3.3: over the trace domain [T] the problem is
    undecidable (see {!Halting_reduction}); {!bounded} provides the
    semi-decision that is still available: run the Section 1.1 enumeration
    under a budget and report what was established. *)

type verdict =
  | Finite of Fq_db.Relation.t  (** finite, with the full answer *)
  | Infinite
  | Unknown of Fq_db.Relation.t  (** budget exhausted; partial answer *)

val via_active_domain :
  state:Fq_db.State.t -> Fq_logic.Formula.t -> (bool, string) result
(** Pure-equality domain. Finite iff no tuple containing a fresh element
    (outside the active domain) satisfies the query — checked by the
    equality domain's decision procedure on a relativized sentence. *)

val via_finitization :
  domain:Fq_domain.Domain.t ->
  decide:(Fq_logic.Formula.t -> (bool, string) result) ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (bool, string) result
(** Theorem 2.5, parameterized by the extension's decision procedure
    (e.g. {!Fq_domain.Presburger.decide} or {!Fq_domain.Nat_order.decide}). *)

val via_extended_active :
  state:Fq_db.State.t -> Fq_logic.Formula.t -> (bool, string) result
(** Theorem 2.6 over {!Fq_domain.Nat_succ}. *)

val bounded :
  budget:Fq_core.Budget.t ->
  ?max_certified:int ->
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (verdict, string) result
(** Budget-bounded semi-decision for arbitrary decidable domains
    (including [T], where no complete procedure can exist): runs
    {!Fq_eval.Enumerate.run_budgeted}; [Finite] and its answer are
    certified by the decision procedure, [Unknown] is reported when the
    budget runs out. [Infinite] is
    reported when the domain decides the unboundedness sentence — only
    available where the bounding is expressible (never for [T]). *)

val decide_for :
  domain:Fq_domain.Domain.t ->
  state:Fq_db.State.t ->
  Fq_logic.Formula.t ->
  (bool, string) result
(** Dispatch on the built-in domains by name: equality, [N_<], [N'],
    Presburger. Errors on domains with no known complete procedure
    (in particular [T] — Theorem 3.3). *)
