(** The paper's central positive-case domain [N_<]: natural numbers with
    linear order (Section 2.1). Fact 2.1, Theorem 2.2 (finitization) and
    Theorem 2.5 (relative safety) are all about this domain and its
    extensions.

    The decision procedure is a dedicated {e test-point} quantifier
    elimination, independent of {!Cooper} (the test suite checks the two
    agree): in [∃x (⋀ tᵢ < x ∧ ⋀ x < uⱼ ∧ ⋀ x ≠ dₖ ∧ rest)], if a solution
    exists then one exists among the [K+1] smallest points at or above some
    lower bound, where [K] counts the disequalities — so [x] can be
    replaced by the finitely many candidate terms [0+s] and [tᵢ+1+s],
    [s ≤ K], each guarded by [0 ≤ candidate].

    Eliminating quantifiers introduces terms [v + k]; the domain's
    signature therefore includes [+] (with a numeral argument) and the
    successor [s] as syntactic sugar — the paper's results are stated for
    arbitrary {e extensions} of [N_<], so this costs no generality. *)

include Domain.S

val qe : Fq_logic.Formula.t -> (Fq_logic.Formula.t, string) result
(** Quantifier-free equivalent over [N_<] (free variables allowed, ranging
    over ℕ). Each test-point instantiation is checkpointed against the
    ambient {!Fq_core.Budget}; governor trips come back as structured
    [Error] strings, never exceptions. *)
