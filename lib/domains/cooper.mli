(** Cooper's quantifier-elimination decision procedure for Presburger
    arithmetic over the {e integers} [(ℤ, <, +, constants, divisibility)].

    This is the workhorse behind the paper's Section 2 positive cases: the
    domain [N_<] and its extensions (ordered naturals, Presburger
    arithmetic) are reducts of [(ℕ, +, <)], whose sentences relativize into
    ℤ-sentences decided here (see {!Presburger}). The dedicated [N_<] and
    [N_succ] procedures are cross-checked against this module in the test
    suite.

    The formula language accepted: equality, the predicates [<], [<=], [>],
    [>=], divisibility atoms [dvd(k, t)] (written [k | t]) with a constant
    [k], and linear terms (see {!Linear_term.of_term}). *)

type atom =
  | Lt of Linear_term.t  (** [0 < t] *)
  | Dvd of Fq_numeric.Bigint.t * Linear_term.t  (** [d | t], [d > 0] *)
  | Ndvd of Fq_numeric.Bigint.t * Linear_term.t

type qf =
  | T
  | F
  | A of atom
  | Conj of qf * qf
  | Disj of qf * qf
      (** Quantifier-free, negation-free normal form: negation is pushed
          into atoms ([¬(0<t) ≡ 0<1−t], [¬(d|t) ≡ Ndvd]). *)

val of_formula : Fq_logic.Formula.t -> (qf, string) result
(** Converts a {e quantifier-free} formula. *)

val qf_not : qf -> qf
val eliminate : string -> qf -> qf
(** [eliminate x phi] is a quantifier-free [qf] equivalent (over ℤ) to
    [∃x. phi] — one step of Cooper's algorithm. Checkpoints each of the
    δ·(1+|B|) expansion instances against the ambient {!Fq_core.Budget};
    raises [Budget.Exhausted (Unsupported _)] when the divisor LCM δ (a
    {!Fq_numeric.Bigint}) exceeds the native expansion range. *)

val qe : Fq_logic.Formula.t -> (qf, string) result
(** Eliminates all quantifiers of an arbitrary formula under the ambient
    {!Fq_core.Budget}; governor trips come back as the structured [Error]
    strings of {!Fq_core.Budget.error_string} (recover with
    [failure_of_string]), never as exceptions. *)

val eval_qf : env:(string * Fq_numeric.Bigint.t) list -> qf -> (bool, string) result

val decide : Fq_logic.Formula.t -> (bool, string) result
(** Truth of a sentence in [(ℤ, <, +, dvd)]. Same budget contract as
    {!qe}. *)

val atom_count : qf -> int
(** For benchmarks: the number of atoms in a formula. *)
