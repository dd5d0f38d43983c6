(** First-order formulas of the relational calculus.

    A formula mixes {e database} predicates (the relation names of a
    database scheme, interpreted by a state) and {e domain} predicates and
    functions (interpreted by a fixed infinite domain such as [N_<] or the
    trace domain [T]). Equality is built in, as throughout the paper. *)

module Sset : Set.S with type elt = string

type t =
  | True
  | False
  | Atom of string * Term.t list  (** predicate applied to terms *)
  | Eq of Term.t * Term.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | Exists of string * t
  | Forall of string * t

(** {1 Smart constructors} *)

val conj : t list -> t
(** Conjunction of a list; [conj [] = True]. *)

val disj : t list -> t
(** Disjunction of a list; [disj [] = False]. *)

val exists_many : string list -> t -> t
val forall_many : string list -> t -> t

val neq : Term.t -> Term.t -> t

(** {1 Structure} *)

val equal : t -> t -> bool
(** Structural equality (not alpha-equivalence). *)

val compare : t -> t -> int

val hash : t -> int
(** Structural hash, consistent with {!equal}. Combined with
    {!alpha_normalize} it keys hash tables up to alpha-equivalence. *)

val alpha_normalize : t -> t
(** Renames every bound variable to a canonical name determined by its
    binder depth, so alpha-equivalent formulas become structurally equal:
    [equal (alpha_normalize f) (alpha_normalize g)] iff [f] and [g] are
    alpha-equivalent. Free variables, constants and predicates are
    untouched; the result is logically equivalent to the input. *)

val free_vars : t -> string list
(** Free variables in order of first occurrence. *)

val free_var_set : t -> Sset.t
val all_vars : t -> Sset.t
(** Free and bound variables together. *)

val is_sentence : t -> bool
val consts : t -> string list
(** Constant symbols occurring anywhere in the formula. *)

val preds : t -> (string * int) list
(** Predicate symbols with arities, in order of first occurrence. *)

val funs : t -> (string * int) list
val size : t -> int
val quantifier_depth : t -> int

val conjuncts : t -> t list
(** Flattens nested [And]; [conjuncts True = []]. *)

val disjuncts : t -> t list

(** {1 Substitution} *)

val fresh_var : avoid:Sset.t -> string -> string
(** [fresh_var ~avoid base] is a variable named after [base] that does not
    occur in [avoid]. *)

val subst : (string * Term.t) list -> t -> t
(** Capture-avoiding simultaneous substitution of terms for free variables.
    Bound variables are renamed when needed. *)

val rename_bound : avoid:Sset.t -> t -> t
(** Renames every bound variable so that bound names are distinct from each
    other, from free variables, and from [avoid]. *)

val subst_const : string -> Term.t -> t -> t
(** Replace a constant symbol by a term everywhere — the paper's [\[z/c\]]
    operation used in Theorem 3.1. Capture-avoiding. *)

val map_atoms : (t -> t) -> t -> t
(** Applies a function to every [Atom] and [Eq] leaf, rebuilding the
    formula. The callback receives the leaf and must return a formula. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
