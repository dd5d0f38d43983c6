(** Syntactic transformations used by the decision procedures.

    Every quantifier-elimination procedure in the library (Presburger via
    Cooper, the [N_<] test-point method, the [N_succ] elimination of §2.2,
    the Reach-theory elimination of Theorem A.3) follows the same skeleton:
    negation normal form, innermost-quantifier selection, disjunctive normal
    form of the matrix, per-conjunct elimination. This module supplies the
    shared pieces. *)

val simplify : Formula.t -> Formula.t
(** Boolean and trivial-quantifier simplification: constant propagation
    through connectives, double negation, reflexive equalities, and
    [Exists x. f = f] when [x] is not free in [f] (sound because every
    domain in this library is nonempty). Idempotent. *)

val nnf : Formula.t -> Formula.t
(** Negation normal form. Eliminates [Imp] and [Iff] and pushes [Not] down
    to atoms. The result contains [Not] only directly above [Atom]/[Eq]. *)

val prenex : Formula.t -> Formula.t
(** Prenex normal form of an arbitrary formula. Bound variables are renamed
    apart first, so the result's quantifier prefix binds distinct names. *)

val matrix : Formula.t -> (string * [ `Exists | `Forall ]) list * Formula.t
(** Splits a prenex formula into its quantifier prefix (outermost first) and
    quantifier-free matrix. *)

val dnf : Formula.t -> Formula.t list list
(** Disjunctive normal form of a quantifier-free, NNF formula: a disjunction
    of conjunctions of literals. Each literal is an [Atom], [Eq], or the
    negation of one. [dnf True = [[]]]; [dnf False = []].
    @raise Invalid_argument if the input contains quantifiers or [Imp]/[Iff]. *)

val miniscope : Formula.t -> Formula.t
(** Pushes quantifiers inward as far as possible on an NNF formula:
    [∃x (f ∨ g) = ∃x f ∨ ∃x g], [∃x (f ∧ g) = f ∧ ∃x g] when [x] is not
    free in [f] (dually for [∀]/[∧]/[∨]), and vacuous quantifiers drop.
    Smaller quantifier scopes mean smaller DNF matrices inside the
    quantifier-elimination procedures. Accepts any formula (normalizes to
    NNF first); preserves logical equivalence over nonempty domains. *)

val eliminate_quantifiers :
  exists_conj:(string -> Formula.t list -> Formula.t) -> Formula.t -> Formula.t
(** Generic quantifier-elimination driver. [exists_conj x lits] must return
    a quantifier-free formula equivalent to [Exists (x, conj lits)] where
    [lits] are literals (possibly not mentioning [x]). The driver handles
    NNF, [Forall x. f = ~Exists x. ~f], innermost-first elimination, and
    DNF distribution, and simplifies as it goes. *)
