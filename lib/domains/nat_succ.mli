(** The paper's Section 2.2 domain [N']: {e unordered} natural numbers with
    only the successor function [x' = x + 1] and equality. The order [<] is
    famously not definable here, yet Theorems 2.6 and 2.7 show relative
    safety is decidable and finite queries have a recursive syntax — the
    point being that "the phenomenon of syntax does not completely rely on
    discrete ordering".

    The decision procedure is the paper's own quantifier elimination: every
    formula is a boolean combination of atoms [s^a(x) = s^b(y)]; in
    [∃x (⋀ literals)], an equality [x = y^{(n)}] substitutes directly
    (adding the guards [y ≠ 0 ∧ … ∧ y ≠ n−1] when [n] is negative), and a
    conjunction of disequalities alone is always satisfiable in the
    infinite domain. The output stays in the domain's own language. *)

include Domain.S

val qe : Fq_logic.Formula.t -> (Fq_logic.Formula.t, string) result
(** Quantifier-free equivalent over [N'] (free variables allowed). Each
    eliminated quantifier is checkpointed against the ambient
    {!Fq_core.Budget}; governor trips come back as structured [Error]
    strings, never exceptions. *)

val qe_offset_bound : Fq_logic.Formula.t -> int
(** An upper bound on the successor-offsets appearing in the quantifier-free
    equivalent of the formula, as a function of its quantifier depth [q] and
    the offsets already present — the paper's observation that "the new
    constants introduced under the quantifier-elimination procedure are
    within the distance 2^q from the constants in the original formula",
    which drives the extended-active-domain syntax of Theorem 2.7. *)
