(** Quantifier elimination for the Reach Theory of Traces — the paper's
    Theorem A.3, yielding decidability of the theory of the trace domain
    [T] (Corollary A.4).

    The elimination follows the Appendix: work innermost-first; put the
    matrix in disjunctive normal form; specialize the quantified variable
    to one of the four classes [M]/[W]/[T]/[O]; normalize every literal
    under that class assumption (negated [B]/[D]/[E] atoms expand into
    positive ones, [D]/[E] atoms with non-constant input arguments expand
    through the [B_v] predicates — the paper's Case M trick); then
    eliminate:

    - {b Case M}: the [D]/[E] system on the machine variable is checked by
      the explicit Lemma A.2 construction ({!Fq_tm.Builder}); disequalities
      never block because behaviourally equivalent machines abound.
    - {b Case W}: a witness input, if any, exists among the words of
      bounded length; the formula becomes a finite disjunction over
      padded prefixes.
    - {b Case T}: the paper's four sub-cases T-1..T-4, keyed on which of
      [m(x) = t], [w(x) = v] are present; T-4 reduces counting distinct
      excluded traces to a [D_{r+1}(t, v)] atom.
    - {b Case O}: only disequalities can mention the variable; the class is
      infinite, so they are dropped. *)

val eliminate : Reach.t -> Reach.t
(** A quantifier-free equivalent (free variables allowed). The exponential
    expansions (the 2^n word disjunctions of cases W/M, and every DNF
    clause) checkpoint against the ambient {!Fq_core.Budget}, so a governed
    caller can cut them short. *)

val decide : Reach.t -> (bool, string) result
(** Truth of a Reach-theory sentence: eliminate, then evaluate the ground
    residue with bounded Turing-machine simulation. Governor trips come
    back as the structured [Error] strings of
    {!Fq_core.Budget.error_string}, never as exceptions. *)

val decide_formula : Fq_logic.Formula.t -> (bool, string) result
(** Truth of a sentence over the {e original} signature of [T]
    ([P], [=], word constants): translate via {!Reach.of_formula}, then
    {!decide}. This is the paper's Corollary A.4. *)
