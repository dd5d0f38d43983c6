(** Linear integer terms [c₁·x₁ + … + cₖ·xₖ + c₀] with {!Fq_numeric.Bigint}
    coefficients — the term language of Presburger arithmetic, shared by
    Cooper's algorithm and the dedicated [N_<] procedure. *)

type t

val zero : t
val const : Fq_numeric.Bigint.t -> t
val of_int : int -> t
val var : string -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Fq_numeric.Bigint.t -> t -> t
val succ : t -> t

val coeff : string -> t -> Fq_numeric.Bigint.t
(** Zero when the variable does not occur. *)

val const_part : t -> Fq_numeric.Bigint.t
val vars : t -> string list
val is_const : t -> bool
val equal : t -> t -> bool

val remove : string -> t -> t
(** Drops the variable's monomial. *)

val subst : string -> t -> t -> t
(** [subst x u t] replaces [x] by the linear term [u] in [t]. *)

val eval : env:(string * Fq_numeric.Bigint.t) list -> t -> (Fq_numeric.Bigint.t, string) result

val of_term : Fq_logic.Term.t -> (t, string) result
(** Interprets a logic term over the Presburger signature: numerals,
    variables, [+], binary [-], unary [neg], successor [s], and [*] with at
    least one constant side. Rejects nonlinear products, scheme constants
    and unknown symbols. *)

val pp : Format.formatter -> t -> unit
