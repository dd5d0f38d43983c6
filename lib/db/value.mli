(** The universal value type of the library.

    Every domain interprets constants into this type: the numeric domains
    ([N_<], [N_succ], Presburger) use [Int]; the trace domain [T] and the
    pure-equality domain use [Str] (words over the trace alphabet,
    respectively arbitrary strings). Database relations store tuples of
    these values, so one relational substrate serves every domain. *)

type t =
  | Int of Fq_numeric.Bigint.t
  | Str of string

val int : int -> t
val big : Fq_numeric.Bigint.t -> t
val str : string -> t

val compare : t -> t -> int
(** Total order: all [Int]s before all [Str]s. *)

val equal : t -> t -> bool
(** Physically equal values are equal without a comparison. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_const : t -> string
(** The constant symbol denoting this value in formulas: the decimal
    numeral for [Int], the raw string for [Str] (quoted by the printer). *)

val as_int : t -> Fq_numeric.Bigint.t option
val as_str : t -> string option
