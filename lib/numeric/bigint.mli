(** Arbitrary-precision signed integers.

    The sealed build environment has no [zarith], but Cooper's algorithm for
    Presburger arithmetic needs exact least-common-multiple arithmetic whose
    intermediate values can overflow native integers. This module provides a
    self-contained sign-magnitude implementation (base 10000 limbs) with the
    operations the rest of the library needs.

    All operations are purely functional. Values are normalized: no leading
    zero limbs, and zero has a unique representation with sign [0]. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optional sign followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div_rem : t -> t -> t * t
(** Truncated division: [div_rem a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] having the sign of [a] (or zero).
    @raise Division_by_zero when [b] is zero. *)

val ediv_rem : t -> t -> t * t
(** Euclidean division: the remainder satisfies [0 <= r < |b|].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divisible : by:t -> t -> bool
(** [divisible ~by:d n] is [true] iff [d] divides [n]. [d] must be nonzero. *)

val gcd : t -> t -> t
(** Nonnegative greatest common divisor; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t
(** Nonnegative least common multiple; [lcm x 0 = 0]. *)

val lcm_list : t list -> t
(** Least common multiple of a list; the LCM of the empty list is [one]. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative exponent. *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end
