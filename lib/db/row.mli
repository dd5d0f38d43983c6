(** Array-backed tuples.

    Rows are {!Relation}'s internal tuple representation: column access is
    O(1) (unlike the [Value.t list] tuples of the public {!Relation} API).
    A row is its cells array itself — one heap block per row, no
    precomputed hash — so decoding an answer allocates nothing else per
    row. *)

type t

val of_list : Value.t list -> t
val of_array : Value.t array -> t
(** Takes ownership of the array; do not mutate it afterwards. O(1). *)

val to_list : t -> Value.t list
val cells : t -> Value.t array
(** The underlying array; treat as read-only. O(1). *)

val hash : t -> int
(** FNV-style fold of {!Value.hash} over the cells, left to right,
    computed on demand; equal rows have equal hashes. *)

val arity : t -> int
val get : t -> int -> Value.t

val equal : t -> t -> bool
(** Cell by cell, with {!Value.equal}'s physical-equality fast path for
    the shared cells a dictionary decode produces. *)

val compare : t -> t -> int
(** Lexicographic by {!Value.compare} — the canonical relation order. *)

val pp : Format.formatter -> t -> unit
