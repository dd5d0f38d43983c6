(** Finite relations: sets of same-arity tuples of {!Value.t}.

    Relations are persistent and kept in a canonical sorted order, so
    equality is structural and printing is deterministic. The arity is
    carried explicitly; the nullary relations [{()}] and [{}] (the two
    0-ary relations, "true" and "false") are representable, as relational
    algebra requires.

    Internally tuples are array-backed {!Row}s, stored in a sorted duplicate-free array with O(1) column access. The
    list-based [tuple] API is preserved on top. The algebra over
    relations is {!Relalg.eval}. *)

type tuple = Value.t list

type t

val make : arity:int -> tuple list -> t
(** @raise Invalid_argument when a tuple's length differs from [arity]. *)

val empty : arity:int -> t
val arity : t -> int
val tuples : t -> tuple list
(** In canonical (sorted) order. *)

val cardinal : t -> int
val is_empty : t -> bool
val mem : tuple -> t -> bool
val add : tuple -> t -> t
val equal : t -> t -> bool

val fold : (tuple -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (tuple -> unit) -> t -> unit
val exists : (tuple -> bool) -> t -> bool
val for_all : (tuple -> bool) -> t -> bool
val values : t -> Value.t list
(** All values occurring in any tuple, deduplicated and sorted. *)

val of_values : Value.t list -> t
(** Unary relation from a value list. *)

val rows : t -> Row.t array
(** The underlying rows, sorted and duplicate-free; treat as read-only. *)

val of_rows : arity:int -> Row.t array -> t
(** Builds a relation from arbitrary rows (sorts and deduplicates; the
    input array is not mutated).
    @raise Invalid_argument when a row's arity differs from [arity]. *)

val mem_row : Row.t -> t -> bool
(** Binary search over the sorted rows. *)

val of_sorted_rows : arity:int -> Row.t array -> t
(** Adopts an array the caller guarantees is already sorted ascending by
    [Row.compare] and duplicate-free — the columnar engine's fast path out of an
    order-preserving pipeline (no check is performed; a violated
    precondition breaks {!equal} and {!mem}). *)

val pp : Format.formatter -> t -> unit
