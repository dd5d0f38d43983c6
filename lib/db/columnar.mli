(** Columnar batch kernel: the execution representation of the
    batch-at-a-time {!Relalg} engine.

    A batch stores a relation column-major as dictionary codes — one
    [int array] per attribute — with an optional {e selection vector}
    mapping logical to physical rows, so filters and anti-joins are
    index-only.  All batches of one plan evaluation share a {!Dict}:
    value equality is code equality, and when the dictionary was built
    rank-ordered ({!Dict.of_sorted_values}) the final conversion back to
    a canonical {!Relation} sorts unboxed ints only.

    Every operator maintains the set-semantics invariant (logical rows
    duplicate-free), so per-operator cardinalities — and hence budget
    charges and telemetry histograms — are the cardinalities of the
    relations the plan denotes. *)

module Dict : sig
  type t

  val create : ?size:int -> unit -> t

  val of_sorted_values : Value.t list -> t
  (** Dictionary over a duplicate-free, {!Value.compare}-ascending value
      list; codes are ranks, enabling the int-only canonical sort in
      {!to_relation}. *)

  val overlay : t -> t
  (** A fresh mutable layer over [parent]: lookups fall through to the
      parent, insertions stay local. Lets one frozen storage dictionary
      (cached on the {!State}) serve concurrent evaluations, each adding
      only its plan's literal values. *)

  val size : t -> int
  (** Total codes, parent layers included. *)

  val ordered : t -> bool
  (** Codes are {!Value.compare} ranks across all layers (no
      out-of-order insertions). *)

  val encode : t -> Value.t -> int
  (** Code for a value, inserting it into the top layer if absent in any
      layer (which may clear [ordered]). *)

  val find : t -> Value.t -> int option
  (** Code for a value known to any layer; [None] means the value occurs
      nowhere in the encoded data. *)

  val decode : t -> int -> Value.t

  val hash_code : t -> int -> int
  (** [hash_code d code] is [Value.hash (decode d code)], served from a
      per-code cache — the decode path never rehashes a boxed value. *)
end

type t = private {
  arity : int;
  nrows : int;  (** logical row count *)
  cols : int array array;  (** per-attribute physical code columns *)
  sel : int array option;  (** logical row [i] is physical row [sel.(i)] *)
  sorted : bool;
      (** logical rows are in strictly increasing code-lexicographic
          order; order-preserving operators propagate it so
          {!to_relation} can skip sorting *)
}

val arity : t -> int
val nrows : t -> int
val empty : int -> t

val of_relation : Dict.t -> Relation.t -> t
(** Encode a relation's rows through the dictionary. *)

val to_relation : Dict.t -> t -> Relation.t
(** Decode back to a canonical relation; int-code sort when the
    dictionary is rank-{!Dict.ordered}, value sort otherwise. *)

val dense : t -> t
(** Resolve the selection vector (logical = physical afterwards). *)

val filter : (int -> bool) -> t -> t
(** Keep the logical rows satisfying the predicate (indices are logical
    row numbers); builds a selection vector, never copies columns. *)

val project : int array -> t -> t
(** Keep the listed columns in order (indices may repeat), then
    deduplicate. *)

val product : t -> t -> t

val equijoin : (int * int) list -> t -> t -> t
(** Hash equijoin over code columns: builds on the right operand, probes
    with the left; output is left-major. *)

val union : t -> t -> t
val diff : t -> t -> t
