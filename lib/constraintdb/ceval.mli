(** First-order query evaluation over constraint databases — the actual
    query language of [KKR90] that Section 1.2 refers to: relational
    calculus with order atoms, where database relations are finitely
    representable ({!Crel}) rather than finite, and the {e answer} is again
    finitely representable.

    The closure property is the point: every first-order query over
    constraint relations evaluates, by structural recursion, to a
    constraint relation — disjunction is union, conjunction is join,
    negation is complement (relative to the free columns), and the
    quantifiers are projections backed by the dense-order quantifier
    elimination of {!Crel.project}. Finiteness of the result — the
    relative safety question — is then decidable by {!Crel.is_finite},
    in contrast to the trace domain (Theorem 3.3). *)

type db = (string * Crel.t) list
(** Named constraint relations; each fixes the arity via its columns
    (column names are positional placeholders, renamed on use). *)

val query : db:db -> Fq_logic.Formula.t -> (Crel.t, string) result
(** Evaluates a formula over the signature [{<, <=, =}] plus the database
    relations. The result's columns are the formula's free variables in
    first-occurrence order. Constants are decimal rationals ([Term.Const
    "3"], ["1/2"], ["-7/3"]); function symbols are rejected.

    Negation complements relative to the free variables of the negated
    subformula; universal quantification is [¬∃¬]. The semantics is the
    natural one over all of ℚ (constraint relations are not restricted to
    an active domain). *)

val holds : db:db -> Fq_logic.Formula.t -> env:(string * Rat.t) list -> (bool, string) result
(** Truth of a formula under an assignment of rationals to its free
    variables. *)

val decide : db:db -> Fq_logic.Formula.t -> (bool, string) result
(** Truth of a sentence: evaluate and test nonemptiness.

    All three entry points charge one work unit per connective of the
    compilation recursion to the ambient {!Fq_core.Budget};
    governor trips come back as the structured [Error] strings of
    {!Fq_core.Budget.error_string}. *)
