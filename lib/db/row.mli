(** Array-backed tuples with a precomputed hash.

    Rows are {!Relation}'s internal tuple representation: column access is
    O(1) (unlike the [Value.t list] tuples of the public {!Relation} API)
    and the hash computed at construction lets equality reject early. *)

type t

val of_list : Value.t list -> t
val of_array : Value.t array -> t
(** Takes ownership of the array; do not mutate it afterwards. *)

val of_array_hashed : Value.t array -> int -> t
(** [of_array_hashed cells h] takes ownership of [cells] and trusts [h]
    to equal [hash (of_array cells)] — for callers that combine cached
    per-value hashes (the columnar engine's dictionary) instead of
    rehashing boxed values. Unchecked. *)

val combine_hash : int -> int -> int
(** The row-hash accumulator: [of_array cells] hashes as
    [fold combine_hash seed_hash (map Value.hash cells) land max_int]. *)

val seed_hash : int

val to_list : t -> Value.t list
val cells : t -> Value.t array
(** The underlying array; treat as read-only. *)

val hash : t -> int
(** Precomputed at construction; equal rows have equal hashes. *)

val arity : t -> int
val get : t -> int -> Value.t

val equal : t -> t -> bool
(** Rejects on hash mismatch before comparing cells. *)

val compare : t -> t -> int
(** Lexicographic by {!Value.compare} — the canonical relation order. *)

val pp : Format.formatter -> t -> unit
